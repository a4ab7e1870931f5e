"""Single lookup point for every built-in model name."""

from __future__ import annotations

from typing import Optional

from . import harmonic
from .graph_ir import ArchGraph, TensorShape


def __getattr__(name: str):  # imports references for MODEL_NAMES only when it is read
    if name != "MODEL_NAMES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .references import REFERENCE_MODELS
    global MODEL_NAMES
    MODEL_NAMES = tuple(sorted(harmonic.HARDNET_VARIANTS + REFERENCE_MODELS))
    return MODEL_NAMES


def default_input(name: str) -> TensorShape:
    return harmonic.default_input(name.lower())


def build(name: str, input_shape: Optional[TensorShape] = None) -> ArchGraph:
    key = name.lower()
    if key in harmonic.HARDNET_VARIANTS:
        return harmonic.build_model(key, input_shape)
    from . import references
    if key in references.REFERENCE_MODELS:
        return references.build_reference(key, input_shape)
    raise KeyError(f"unknown model {name!r}; see list-models")
