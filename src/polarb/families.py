"""Shared tags and parameters for the six families of classical polar spaces.

A family is identified by one of the strings in ``FAMILIES``.  The integer
``tau`` is twice the type parameter e, so every exponent formula that
involves e can be written over integers.  ``q`` always denotes the order of
the ground field; for the two Hermitian families this order is a square and
the square root is the natural exponent base.
"""

from __future__ import annotations

FAMILIES = ("Qplus", "Qparabolic", "Qminus", "W", "Hodd", "Heven")

# tau = 2e: q^e + 1 generators pass through each next-to-maximal subspace.
TAU = {
    "Qplus": 0,
    "Hodd": 1,
    "Qparabolic": 2,
    "W": 2,
    "Heven": 3,
    "Qminus": 4,
}

ORTHOGONAL = frozenset({"Qplus", "Qparabolic", "Qminus"})
HERMITIAN = frozenset({"Hodd", "Heven"})

_ALIASES = {
    "qplus": "Qplus",
    "q+": "Qplus",
    "qparabolic": "Qparabolic",
    "q": "Qparabolic",
    "qminus": "Qminus",
    "q-": "Qminus",
    "w": "W",
    "hodd": "Hodd",
    "heven": "Heven",
}


def normalize_family(name: str) -> str:
    """Map a user-facing family name (``Q+``, ``w``, ...) to its canonical tag."""
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown polar space family {name!r}; expected one of {FAMILIES}")
    return _ALIASES[key]


def ambient_dim(family: str, d: int) -> int:
    """Vector space dimension of the ambient space for rank d."""
    if family in ("Qplus", "W", "Hodd"):
        return 2 * d
    if family in ("Qparabolic", "Heven"):
        return 2 * d + 1
    if family == "Qminus":
        return 2 * d + 2
    raise ValueError(f"unknown family {family!r}")


def space_label(family: str, d: int, q: int) -> str:
    """Render the classical name, e.g. Q+(7,2) or H(3,4)."""
    if family == "Qplus":
        return f"Q+({2 * d - 1},{q})"
    if family == "Qparabolic":
        return f"Q({2 * d},{q})"
    if family == "Qminus":
        return f"Q-({2 * d + 1},{q})"
    if family == "W":
        return f"W({2 * d - 1},{q})"
    if family == "Hodd":
        return f"H({2 * d - 1},{q})"
    if family == "Heven":
        return f"H({2 * d},{q})"
    raise ValueError(f"unknown family {family!r}")
