"""Test-side reads of a metrics registry, through its one reader
(``MetricsRegistry.series``)."""


def series_of(registry, name, **labels):
    """The series of ``name`` with exactly ``labels`` (``None`` when it
    does not exist): a ``Scalar`` or a ``Histogram``."""
    want = {k: str(v) for k, v in labels.items()}
    return next((series for have_name, _, have, series in registry.series()
                 if have_name == name and have == want), None)


def reading(registry, name, **labels):
    """The summed reading of the counter or gauge ``name`` over every
    series whose labels include ``labels`` (0.0 when there is none)."""
    return sum(series.read()
               for have_name, _, have, series in registry.series()
               if have_name == name
               and all(have.get(k) == str(v) for k, v in labels.items()))
