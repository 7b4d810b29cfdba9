"""Finite integer combinations, the arithmetic of a free Z-module.

``FockVector``, ``SymPolynomial`` and ``HeckeElement`` are integer
combinations of their basis keys (partitions, exponent vectors, terms
y^a * w) and share this arithmetic.  A coefficient that is an ``int``
(``bool`` included) is kept as an ``int``; anything else raises
``TypeError``, so nothing is rounded.  An operand of another type is
``NotImplemented``, so Python raises ``TypeError``; an element of the same
type over another ring raises ``ValueError``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Mapping

_set = object.__setattr__  # the two fields are set once, in __new__ or _trusted


class IntCombination:
    """A finite integer combination of hashable keys, with no zero terms.

    ``terms`` maps each key to its coefficient, read-only.  ``ring`` is what
    two elements must share to be added: the number of variables, the rank,
    or ``None`` for the Fock space.  Neither can be assigned once the element
    is built.  Each subclass defines ``_checked_key``, which returns a key as
    stored or raises if it is not a basis key, and adds named constructors,
    a product and formatting.
    """

    __slots__ = ("ring", "terms")
    _MISMATCH = "ring mismatch: {} vs {}"

    def __new__(cls, terms: Mapping | None = None, ring: Hashable = None):
        element = object.__new__(cls)
        _set(element, "ring", ring)  # _checked_key may read it
        checked = {}
        if terms:
            for key, c in terms.items():
                key = element._checked_key(key)
                if not isinstance(c, int):
                    raise TypeError(f"coefficients must be integers, got {c!r} at {key!r}")
                if c:
                    checked[key] = int(c)
        _set(element, "terms", MappingProxyType(checked))
        return element

    @classmethod
    def _trusted(cls, terms: Mapping, ring: Hashable = None):
        """Wrap integer coefficients on keys known to be valid; only zeros go.

        Skips the constructor's checks.  Only for the results of arithmetic
        and of operations on elements that were already checked; any other
        input goes through the constructor.
        """
        element = object.__new__(cls)
        _set(element, "ring", ring)
        _set(element, "terms", MappingProxyType({k: c for k, c in terms.items() if c}))
        return element

    def __setattr__(self, *_) -> None:
        raise AttributeError(f"{type(self).__name__} cannot be changed; build a new one")

    __delattr__ = __setattr__

    def __reduce__(self):
        """Pickle and copy rebuild from a plain dict of the terms."""
        return self._trusted, (self.terms.copy(), self.ring)

    def coefficient(self, key: Hashable) -> int:
        return self.terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _same_ring(self, other: object) -> bool:
        """Whether other has this type; ``ValueError`` if it has another ring."""
        if type(other) is not type(self):
            return False
        if other.ring != self.ring:
            raise ValueError(self._MISMATCH.format(self.ring, other.ring))
        return True

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        out = self.terms.copy()  # a dict; dict(proxy) would copy key by key
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._trusted(out, self.ring)

    def __sub__(self, other):
        return self + -other if self._same_ring(other) else NotImplemented

    def __neg__(self):
        return self.__rmul__(-1)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):  # the coefficients stay integers
            return NotImplemented
        return self._trusted({k: scalar * c for k, c in self.terms.items()}, self.ring)

    __mul__ = __rmul__  # a ring with a product overrides this

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))
