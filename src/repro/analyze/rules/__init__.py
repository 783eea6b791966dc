"""Rule registry population: importing this package registers every rule."""

from repro.analyze.rules import determinism, hotpath, serde  # noqa: F401
