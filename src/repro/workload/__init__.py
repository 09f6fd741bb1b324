"""Workloads: testbed builders and application models."""

from .applications import (
    BagOfTasks,
    ParameterStudy,
    RunReport,
    StencilApplication,
    wait_for_completion,
)
from .testbed import (
    PLATFORMS,
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
    multi_domain,
    small_campus,
)

__all__ = [
    "BagOfTasks", "ParameterStudy", "StencilApplication", "RunReport",
    "wait_for_completion",
    "TestbedSpec", "build_testbed", "small_campus", "multi_domain",
    "PLATFORMS", "implementations_for_all_platforms",
]
