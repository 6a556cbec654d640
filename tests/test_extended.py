import random

import pytest

from spbw.coefficients import CoeffEndo, CoeffRing, CoeffSigmaDerivation
from spbw.core import Presentation, Relation
from spbw.dsl import build_presentation, parse_presentation
from spbw.errors import HypothesisError, MapError
from spbw.extended import (
    AlgebraEndo,
    ExtendedDerivation,
    auto_inverse,
    extend_delta,
    extend_sigma,
    frame_affine_inverse,
    hypothesis_check,
    verify_twisted_leibniz,
)

from conftest import random_skew


def test_hypothesis_weyl_all_pass(weyl):
    rep = hypothesis_check(weyl)
    assert rep.proposition_ok and rep.theorem_ok and not rep.failures


def test_hypothesis_jordan_h_block(jordan):
    rep = hypothesis_check(jordan)
    assert rep.proposition_ok
    assert rep.theorem_ok  # one generator: no pair relations at all


def test_hypothesis_qplane_t1_fails(qplane):
    rep = hypothesis_check(qplane)
    assert rep.proposition_ok
    assert not rep.t1_relations_trivial
    assert not rep.theorem_ok
    assert any("is not 1" in f for f in rep.failures)


def test_extend_sigma_fixes_scalars_and_generators(qplane_ore):
    lift = extend_sigma(qplane_ore, 0)
    f = qplane_ore.monomial((2,), qplane_ore.ring.const(3))
    assert lift.apply(f) == f


def test_extend_sigma_identity_on_jordan(jordan):
    lift = extend_sigma(jordan, 0)
    assert lift.is_identity()


def test_extend_sigma_coefficientwise(qplane_ore):
    q = qplane_ore.ring.param("q")
    t = qplane_ore.ring.var(0)
    lift = extend_sigma(qplane_ore, 0)
    f = qplane_ore.monomial((1,), t)
    assert lift.apply(f) == qplane_ore.monomial((1,), t.scale(q))


def test_extend_delta_kills_generators(jordan):
    lift = extend_delta(jordan, 0)
    assert lift.apply(jordan.monomial((3,))).is_zero()
    assert lift.apply(jordan.const(5)).is_zero()


def test_extend_delta_coefficientwise(jordan):
    t = jordan.ring.var(0)
    lift = extend_delta(jordan, 0)
    assert lift.apply(jordan.monomial((1,), t)) == jordan.monomial((1,), t * t)


def test_extended_maps_restrict_to_base(jordan, qplane_ore):
    for P in (jordan, qplane_ore):
        from spbw.coefficients import apply_endo, apply_sder

        sig, dele = extend_sigma(P, 0), extend_delta(P, 0)
        for j in range(P.ring.nvars):
            v = P.ring.var(j)
            assert sig.apply(P.from_coeff(v)) == P.from_coeff(apply_endo(P.sigma[0], v))
            assert dele.apply(P.from_coeff(v)) == P.from_coeff(apply_sder(P.delta[0], v))


def test_verify_twisted_leibniz_zero_delta(qplane_ore):
    rng = random.Random(7)
    audit = verify_twisted_leibniz(extend_sigma(qplane_ore, 0), extend_delta(qplane_ore, 0), 20, 3, rng)
    assert audit.ok


def test_verify_twisted_leibniz_jordan(jordan):
    rng = random.Random(7)
    audit = verify_twisted_leibniz(extend_sigma(jordan, 0), extend_delta(jordan, 0), 100, 4, rng)
    assert audit.ok and audit.checked == 100


class _CorruptedDerivation(ExtendedDerivation):
    """A buggy lift: a nonzero generator image spliced in without the
    product-rule corrections."""

    def __init__(self, P, base, twist, spliced):
        super().__init__(P, base, twist)
        self.spliced = tuple(spliced)

    def apply(self, f):
        out = super().apply(f)
        P = self.P
        for e, c in f.terms.items():
            for i, g in enumerate(self.spliced):
                if e[i] and not g.is_zero():
                    shifted = list(e)
                    shifted[i] -= 1
                    out = out + P.multiply(P.monomial(shifted, c), g)
        return out


def test_verify_twisted_leibniz_detects_corruption(weyl_ore):
    rng = random.Random(7)
    sig = extend_sigma(weyl_ore, 0)
    corrupt = _CorruptedDerivation(weyl_ore, weyl_ore.delta[0], sig, (weyl_ore.one(),))
    audit = verify_twisted_leibniz(sig, corrupt, 100, 4, rng)
    assert not audit.ok
    assert audit.witness is not None


def test_algebra_endo_rejects_relation_breaker(weyl):
    # swapping the two generators does not respect x2 x1 = x1 x2 - 1
    with pytest.raises(ValueError):
        AlgebraEndo(weyl, (weyl.gen(1), weyl.gen(0)))


# The second Weyl algebra over F[t1, t2]: x_i t_i = t_i x_i + 1 and every
# other pair commutes.  Each row changes one frame image so that exactly one
# defining relation, of each kind in turn, is no longer respected.
WEYL_A2 = "name a2\ncoeffs t1 t2\ngens x1 x2\ndelta x1: t1 -> 1\ndelta x2: t2 -> 1\nrel x2 x1 = x1 x2\n"


@pytest.mark.parametrize("symbol, image, message", [
    (2, lambda t1, t2, x1, x2: x1 + t2, "relation x2*x1 not respected"),
    (3, lambda t1, t2, x1, x2: x2 + x2, "relation x2*t2 not respected"),
    (0, lambda t1, t2, x1, x2: t1 + x2, "relation t2*t1 not respected"),
], ids=["generator-pair", "generator-variable", "variable-pair"])
def test_twist_breaking_one_relation_names_it(symbol, image, message):
    P = build_presentation(parse_presentation(WEYL_A2))
    images = list(P.frame())
    images[symbol] = image(*images)
    with pytest.raises(MapError) as err:
        AlgebraEndo(P, images)
    assert str(err.value) == message


def test_algebra_endo_compose_images(qplane):
    q = qplane.ring.param("q")
    nu1 = AlgebraEndo(qplane, (qplane.gen(0), qplane.gen(1).scale(q)))
    nu2 = AlgebraEndo(qplane, (qplane.gen(0).scale(q.inverse()), qplane.gen(1)))
    both = nu1.compose(nu2)
    assert both.images[0] == qplane.gen(0).scale(q.inverse())
    assert both.images[1] == qplane.gen(1).scale(q)


def test_lifted_sigmas_commute_under_t2(qplane):
    lifts = [extend_sigma(qplane, i) for i in range(qplane.n)]
    assert lifts[0].compose(lifts[1]).images == lifts[1].compose(lifts[0]).images


def test_frame_affine_inverse_shear(jordan):
    t_sk = jordan.from_coeff(jordan.ring.var(0))
    two_t = t_sk.scale(jordan.ring.scalar(2))
    images = (t_sk, jordan.gen(0) + two_t)
    inv = frame_affine_inverse(jordan, images)
    assert inv is not None
    endo = AlgebraEndo(jordan, images, inverse=AlgebraEndo(jordan, inv, check=False))
    assert endo.inverse.images[1] == jordan.gen(0) - two_t


def test_frame_affine_inverse_swap():
    # x <-> y swap with a parameter weight inverts exactly
    ring = CoeffRing(params=("s",), coeff_vars=("x", "y"))
    s = ring.param("s")
    sigma = CoeffEndo((ring.var(1), ring.var(0).scale(s * s)), (ring.var(1).scale((s * s).inverse()), ring.var(0)))
    delta = CoeffSigmaDerivation((ring.zero(), ring.zero()), sigma)
    P = Presentation(ring, ("z",), (sigma,), (delta,), {})
    x, y = P.from_coeff(ring.var(0)), P.from_coeff(ring.var(1))
    images = (y.scale((s * s).inverse()), x, P.gen(0))
    inv = frame_affine_inverse(P, images)
    assert inv is not None
    AlgebraEndo(P, images, inverse=AlgebraEndo(P, inv, check=False))


def test_frame_affine_inverse_rejects_square(jordan):
    t = jordan.ring.var(0)
    assert frame_affine_inverse(jordan, (jordan.from_coeff(t * t), jordan.gen(0))) is None


def test_frame_affine_inverse_rejects_singular(jordan):
    t_sk = jordan.symbol(0)
    assert frame_affine_inverse(jordan, (t_sk, t_sk + jordan.one())) is None


def test_triangular_inverse_nonlinear_shear(jordan):
    # x -> x + 3 t^2 is not frame-affine but inverts triangularly
    t = jordan.ring.var(0)
    img = jordan.gen(0) + jordan.from_coeff((t * t).scale(jordan.ring.scalar(3)))
    inv = auto_inverse(jordan, jordan.frame()[:1] + (img,))
    assert inv is not None
    assert inv[1] == jordan.gen(0) - jordan.from_coeff((t * t).scale(jordan.ring.scalar(3)))


def test_extend_sigma_requires_h_block():
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    q = ring.param("q")
    sigma = CoeffEndo((ring.var(0).scale(q),))
    delta = CoeffSigmaDerivation((ring.one(),), sigma)  # sigma delta != delta sigma
    P = Presentation(ring, ("x",), (sigma,), (delta,), {})
    with pytest.raises(HypothesisError):
        extend_sigma(P, 0)
