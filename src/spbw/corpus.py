"""Built-in catalog of presentation files shipped with the package."""

from __future__ import annotations

from importlib import resources

from .dsl import PresentationDoc, parse_presentation
from .errors import ConfigError

CORPUS_NAMES = (
    "poly2",
    "poly3",
    "weyl",
    "un2",
    "qplane",
    "jordan",
    "qaffine3",
    "aq",
    "broken",
)


def corpus_source(name: str) -> str:
    """The text of the built-in entry ``name``; a name outside
    ``CORPUS_NAMES`` is a :class:`ConfigError`."""
    if name not in CORPUS_NAMES:
        raise ConfigError(f"unknown corpus entry {name!r}")
    return resources.files("spbw").joinpath(f"corpus/{name}.spbw").read_text(encoding="utf-8")


def corpus_doc(name: str) -> PresentationDoc:
    return parse_presentation(corpus_source(name))
