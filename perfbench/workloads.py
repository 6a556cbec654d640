"""Seeded inputs of the three benchmark workloads.

Nothing here imports spbw: an input is a document text or a product spec,
so generating it costs nothing that the set-up time has to count.  Pass
``p`` of workload ``w`` under seed ``s`` is a pure function of ``(w, s, p)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "spbw" / "corpus"
GOLDEN_DIR = ROOT / "tests" / "golden"

GOLDEN_SEED = 1729  # the default `seed` option, at which the goldens were made
CERTIFIED = "certified-smooth"
FAILED = "failed"

# The README's corpus table: entry -> (verdict, number of symbols).  The
# symbol count (coefficient variables plus generators) is the expected growth
# estimate and calculus dimension of every smooth entry.
CORPUS = {
    "poly2": (CERTIFIED, 2),
    "poly3": (CERTIFIED, 3),
    "weyl": (CERTIFIED, 2),
    "un2": (CERTIFIED, 2),
    "qplane": (CERTIFIED, 2),
    "jordan": (CERTIFIED, 2),
    "qaffine3": (CERTIFIED, 3),
    "aq": (CERTIFIED, 3),
    "broken": (FAILED, 3),
}


@dataclass(frozen=True)
class DocInput:
    """One document for `run_smooth` and the answer it must give."""

    name: str
    text: str
    seed: int
    symbols: int
    expect: str
    golden: str | None = None  # report JSON the zero-timed output must equal


@dataclass(frozen=True)
class ProductInput:
    """One cold product ``x_j^k * y^k`` on a fresh presentation of `family`.

    The right factor is the generator ``x_i`` or, when ``i`` is None, the
    first coefficient variable.
    """

    family: str
    text: str
    k: int
    i: int | None
    j: int


def _with_seed(text: str, seed: int) -> str:
    return f"{text.rstrip()}\n\noptions seed={seed}\n"


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# -- corpus ---------------------------------------------------------------------------


def corpus_source(name: str) -> str:
    return (CORPUS_DIR / f"{name}.spbw").read_text(encoding="utf-8")


def corpus_pass(seed: int, p: int) -> list:
    """Every entry at the golden seed, then every entry at a drawn seed."""
    rng = random.Random(f"corpus:{seed}:{p}")
    out = []
    for name, (verdict, symbols) in CORPUS.items():
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        out.append(DocInput(name, _with_seed(corpus_source(name), GOLDEN_SEED),
                            GOLDEN_SEED, symbols, verdict, golden))
    for name, (verdict, symbols) in CORPUS.items():
        s = _draw_seed(rng)
        out.append(DocInput(name, _with_seed(corpus_source(name), s), s, symbols, verdict))
    return out


# -- wide -------------------------------------------------------------------------------


def _pairs(n: int):
    return list(combinations(range(1, n + 1), 2))


def _gens(n: int) -> str:
    return "gens " + " ".join(f"x{i}" for i in range(1, n + 1))


def poly_doc(n: int) -> str:
    rels = "\n".join(f"rel x{j} x{i} = x{i} x{j}" for i, j in _pairs(n))
    return f"name poly{n}\n{_gens(n)}\n{rels}\n\ncalculus mode=theorem\n"


def weyl2_doc() -> str:
    """Two commuting Weyl pairs (x1, x2) and (x3, x4)."""
    rels = []
    for i, j in _pairs(4):
        tail = " - 1" if (i, j) in ((1, 2), (3, 4)) else ""
        rels.append(f"rel x{j} x{i} = x{i} x{j}{tail}")
    return f"name weyl2\n{_gens(4)}\n" + "\n".join(rels) + "\n\ncalculus mode=theorem\n"


def qaffine_doc(n: int) -> str:
    """Quantum affine n-space with the weighted twists and wedge constants of
    the corpus entry `qaffine3`, one parameter per pair."""
    pairs = _pairs(n)
    lines = [f"name qaffine{n}", "params " + " ".join(f"q{i}{j}" for i, j in pairs), _gens(n)]
    lines += [f"rel x{j} x{i} = q{i}{j} * x{i} x{j}" for i, j in pairs]
    lines += ["", "calculus mode=flat", "dgens " + " ".join(f"x{i}" for i in range(1, n + 1))]
    for k in range(1, n + 1):
        images = [f"x{m} -> q{k}{m}*x{m}" if k < m else f"x{m} -> q{m}{k}^-1*x{m}"
                  for m in range(1, n + 1) if m != k]
        lines.append(f"twist x{k}: " + ", ".join(images))
    lines += [f"wedge x{i} x{j} = q{i}{j}" for i, j in pairs]
    return "\n".join(lines) + "\n"


WIDE = {
    "poly4": (poly_doc(4), 4),
    "weyl2": (weyl2_doc(), 4),
    "qaffine4": (qaffine_doc(4), 4),
    "poly5": (poly_doc(5), 5),
}


def wide_pass(seed: int, p: int) -> list:
    rng = random.Random(f"wide:{seed}:{p}")
    out = []
    for name, (text, symbols) in WIDE.items():
        s = _draw_seed(rng)
        out.append(DocInput(name, _with_seed(text, s), s, symbols, CERTIFIED))
    return out


# -- reduce -----------------------------------------------------------------------------

# Every exponent of the two exponential families, and of jordan, once per
# pass: their cost grows by about ten per step of k, so drawing k would make
# the work of a run depend on the seed.  The parametric families draw one k
# from each band, and qaffine3 also draws its generator pair.  The pass has 29
# products, so its median is the 15th: jordan at k=7, about 11 ms.  Nothing
# lies near it: un2 at k=3 takes about 7 ms, and the next above are jordan at
# k=8 and weyl at k=4, about 20 ms each.  The bands keep every drawn product
# clear of it too: under 2 ms below, over 20 ms above.  So `op_s.p50` is the
# median of the copies of one product whatever the seed and the number of
# passes.  (With 31 products it fell on the lower edge of the jordan k=8 and
# weyl k=4 pair, and moved with the noise of both.)
REDUCE_GRID = {"weyl": range(1, 7), "un2": range(1, 6), "jordan": range(1, 13)}
PARAMETRIC_BANDS = (range(1, 5), range(12, 15), range(18, 21))


def reduce_pass(seed: int, p: int) -> list:
    rng = random.Random(f"reduce:{seed}:{p}")
    out = [ProductInput(family, corpus_source(family), k, None if family == "jordan" else 0,
                        0 if family == "jordan" else 1)
           for family, ks in REDUCE_GRID.items() for k in ks]
    for band in PARAMETRIC_BANDS:
        out.append(ProductInput("qplane", corpus_source("qplane"), rng.choice(band), 0, 1))
        i, j = rng.choice(((0, 1), (0, 2), (1, 2)))
        out.append(ProductInput("qaffine3", corpus_source("qaffine3"), rng.choice(band), i, j))
    rng.shuffle(out)
    return out


PASSES = {"corpus": corpus_pass, "wide": wide_pass, "reduce": reduce_pass}
