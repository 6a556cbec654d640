"""Exact-arithmetic engine for skew PBW extensions: normal-form rewriting,
lifted coefficient maps, a differential graded calculus, and a pipeline that
certifies differential smoothness at desk scale."""

from .coefficients import (
    CoeffEndo,
    CoeffPoly,
    CoeffRing,
    CoeffSigmaDerivation,
    apply_endo,
    apply_sder,
    commutation_audit,
)
from .calculus import CalculusSpec, DGen, DiffForm, build_calculus, theorem_spec
from .core import Presentation, SkewPoly
from .corpus import CORPUS_NAMES, corpus_doc, corpus_source
from .dsl import ParseError, PresentationDoc, build_presentation, parse_presentation, render_presentation
from .errors import (
    CompatibilityError,
    ConfigError,
    HypothesisError,
    NotAVolumeFormError,
    SpbwError,
    UnsupportedPresentationError,
)
from .extended import AlgebraEndo, extend_sigma, hypothesis_check
from .gkdim import filtration_dims, gk_estimate, smoothness_verdict
from .ore import ore_case_classify, ore_document
from .pipeline import run_smooth
from .report import Report
from .scalars import Scalar

__version__ = "0.1.0"
