"""The Collection subsystem: the information database, its query language,
and the Data Collection Daemon."""

from .collection import Collection, Credential
from .daemon import DataCollectionDaemon
from .records import CollectionRecord
from .query import (
    UNDEFINED,
    CompiledQuery,
    QueryFunctions,
    compile_query,
    evaluate,
    matches,
    parse,
)

__all__ = [
    "Collection", "Credential", "CollectionRecord",
    "DataCollectionDaemon",
    "parse", "evaluate", "matches", "QueryFunctions", "UNDEFINED",
    "compile_query", "CompiledQuery",
]
