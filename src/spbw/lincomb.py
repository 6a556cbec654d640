"""Sparse sums shared by every element type, and the one renderer of a
sorted sum of monomial terms.

A :class:`LinComb` maps keys (exponent tuples, sorted index sets) to nonzero
values; the values only need ``+``, unary ``-``, ``==`` and ``is_zero``, and
``scale`` by a scalar for :meth:`LinComb.scale`.
Coefficient polynomials, normal-form elements, differential forms and
integral forms all store their data this way.
"""

from __future__ import annotations


class LinComb:
    """Finite sum stored as ``terms``: key -> nonzero value.  The zero sum is
    the empty map.  Subclasses supply ``_make`` to wrap a terms map in a new
    value of their own type; no operation mutates an existing map."""

    __slots__ = ("terms",)

    def _make(self, terms: dict):
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._make(add_terms(dict(self.terms), other.terms))

    def __neg__(self):
        return self._make({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        """``s`` times the sum, s a scalar, scaling each value; the literal
        unit returns it unchanged."""
        if s.is_zero():
            return self._make({})
        if s.is_unit():
            return self
        return self._make({k: v.scale(s) for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    __hash__ = None


def add_term(acc: dict, key, value) -> None:
    """Add ``value`` at ``key`` of ``acc`` in place, dropping the entry if
    the sum vanishes.  ``acc`` must be a fresh map that no value owns."""
    if key in acc:
        s = acc[key] + value
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s
    else:
        acc[key] = value


def add_terms(acc: dict, terms: dict) -> dict:
    """Add ``terms`` into ``acc`` in place, dropping sums that vanish, and
    return ``acc``.  ``acc`` must be a fresh map that no value owns."""
    for k, v in terms.items():
        add_term(acc, k, v)
    return acc


def sum_terms(parts) -> dict:
    """Terms of the sum of the LinComb values in ``parts``, in a fresh map;
    no part is changed."""
    acc: dict = {}
    for part in parts:
        add_terms(acc, part.terms)
    return acc


# -- rendering ----------------------------------------------------------------


def is_spaced_sum(text: str) -> bool:
    """Whether a rendered coefficient is a sum that needs parentheses
    before ``*``."""
    return " + " in text or " - " in text


def render_sum(terms: dict, names, coeff_str, wrap=is_spaced_sum) -> str:
    """Render ``sum c_e * prod names^e``, highest total degree first.

    ``coeff_str`` renders one coefficient; a unit coefficient is dropped,
    ``-1`` becomes a leading minus, and a coefficient for which ``wrap``
    holds is parenthesized before its monomial.
    """
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k)
        cs = coeff_str(terms[e])
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append(f"({cs})*{mono}" if wrap(cs) else f"{cs}*{mono}")
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out
