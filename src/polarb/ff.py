"""Arithmetic in small finite fields GF(p^k) with p^k <= 2^16.

Elements are integer codes in [0, p^k): the base-p digits of a code are the
coordinates in the polynomial basis {1, x, ..., x^(k-1)} modulo the defining
polynomial.  Multiplication and inversion run off exp/log tables built from a
verified primitive element, so they are O(1) after construction.

The defining polynomial is always the lexicographically least monic
irreducible polynomial of degree k (ordered by the integer code of its
non-leading coefficients), which keeps element codes and every downstream
cache file stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _poly_from_code(code: int, p: int, k: int) -> tuple[int, ...]:
    """Non-leading coefficients (c_0, ..., c_{k-1}) of x^k + sum c_i x^i."""
    digits = []
    for _ in range(k):
        digits.append(code % p)
        code //= p
    return tuple(digits)


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * mi) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division of x^k + sum coeffs[i] x^i by all lower-degree monics."""
    k = len(coeffs)
    poly = list(coeffs) + [1]
    if poly[0] == 0:
        return k == 1  # divisible by x unless it *is* x
    for deg in range(1, k // 2 + 1):
        for code in range(p**deg):
            div = list(_poly_from_code(code, p, deg)) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible polynomial of degree k over GF(p)."""
    for code in range(p**k):
        coeffs = _poly_from_code(code, p, k)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of GF(p^k) plus its arithmetic tables.

    ``poly`` holds the non-leading coefficients of the monic defining
    polynomial and ``primitive`` the least code of multiplicative order
    order-1.  ``exp`` holds two periods of its powers, exp[i] = primitive^i
    for 0 <= i < 2(order-1), then a zero tail of 2(order-1)+1 entries;
    ``log`` inverts the first period and log[0] = 2(order-1) points into the
    tail, so every index log[a] + log[b] with a or b zero lands on a 0.
    ``places`` are the digit place values 1, p, .., p^(k-1).

    add and sub are XOR in characteristic 2 and one base-p digit loop
    otherwise (sub(0, a) negates); the same operators make them valid on
    Python ints and elementwise on int arrays of codes alike.  mul takes
    int codes and gives an int; array_mul is its elementwise form on int
    arrays, by gathers from exp_table and log_table, the int32 copies of exp
    and log, every value below 4 order <= 2^18.  inv_table (inv_table[0] =
    0) and, for square orders, conj_table are the other gather tables.
    """

    p: int
    k: int
    order: int
    poly: tuple[int, ...]
    primitive: int
    exp: tuple[int, ...]
    log: tuple[int, ...]
    places: tuple[int, ...]

    def __post_init__(self):
        # The int32 gather tables, built with the spec, so once per field
        # (field_make caches it), and read-only, as every caller shares them.
        # They are set here like the fields: a later write to the instance
        # __dict__, as by a cached_property, takes CPython's attribute loads
        # off their fast path and doubles the cost of every scalar op.
        tables = {"exp_table": self.exp, "log_table": self.log}
        tables["inv_table"] = [0] + [self.inv(a) for a in range(1, self.order)]
        if self.k % 2 == 0:
            tables["conj_table"] = [self.conjugate(a) for a in range(self.order)]
        for name, values in tables.items():
            table = np.array(values, dtype=np.int32)
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        out = 0
        for pe in self.places:
            out += (a // pe + b // pe) % self.p * pe
        return out

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        out = 0
        for pe in self.places:
            out += (a // pe - b // pe) % self.p * pe
        return out

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    def array_mul(self, a, b) -> np.ndarray:
        return self.exp_table.take(self.log_table.take(a) + self.log_table.take(b))

    def matmul(self, A, B) -> np.ndarray:
        """A @ B over the field for int arrays of codes, with numpy's matmul
        broadcasting of the stacked dimensions: one array_mul and add per inner index."""
        A, B = np.asarray(A), np.asarray(B)
        if A.shape[-1] != B.shape[-2]:
            raise ValueError(f"matmul of shapes {A.shape} and {B.shape}")
        out = np.zeros(np.broadcast_shapes(A.shape[:-1] + (1,), B.shape[:-2] + (1, B.shape[-1])), dtype=np.int32)
        for t in range(A.shape[-1]):
            out = self.add(out, self.array_mul(A[..., t, None], B[..., t, None, :]))
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.exp[self.order - 1 - self.log[a]]

    def conjugate(self, a: int) -> int:
        """The involutive automorphism x -> x^sqrt(order); needs a square order."""
        if self.k % 2:
            raise ValueError(f"GF({self.order}) has no conjugation: order is not a square")
        if a == 0:
            return 0
        root = self.p ** (self.k // 2)
        return self.exp[(self.log[a] * root) % (self.order - 1)]


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> FieldSpec:
    """Construct GF(p^k) with exp/log tables of its least primitive element.

    Multiplication by an element c is the k x k matrix c(X) over GF(p), X the
    companion matrix of the defining polynomial acting on digit rows: row i
    of c(X) is c x^i, and the digit row of c y is digits(y) @ c(X) mod p.
    Codes are tried in increasing order; c has full order exactly when
    c(X)^((order-1)/r) is not the identity for every prime r dividing
    order-1.  The first that passes fills exp by walking its multiplication
    table once.
    """
    if not _is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    order = p**k
    if order > MAX_ORDER:
        raise ValueError(f"field order {order} exceeds the 2^16 ceiling")
    poly = least_irreducible(p, k)
    places = p ** np.arange(k, dtype=np.int64)
    X = np.eye(k, k, 1, dtype=np.int64)  # x * x^i = x^(i+1)
    X[-1] = [-c % p for c in poly]  # x * x^(k-1) = x^k = -sum poly_i x^i
    eye = np.eye(k, dtype=np.int64)

    def power(M, e):
        out = eye
        while e:
            if e & 1:
                out = out @ M % p
            M = M @ M % p
            e >>= 1
        return out

    for cand in range(1, order):
        M = [cand // places % p]
        for _ in range(k - 1):
            M.append(M[-1] @ X % p)
        M = np.array(M)
        if all((power(M, (order - 1) // r) != eye).any() for r in _prime_factors(order - 1)):
            break
    digits = np.arange(order)[:, None] // places % p
    times = (digits @ M % p @ places).tolist()
    powers = [1]
    for _ in range(order - 2):
        powers.append(times[powers[-1]])
    zero = 2 * (order - 1)
    log = [zero] * order
    for i, x in enumerate(powers):
        log[x] = i
    exp = tuple(powers * 2 + [0] * (zero + 1))
    return FieldSpec(p, k, order, poly, cand, exp, tuple(log), tuple(places.tolist()))


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    return field_make(*prime_power(q))


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k and p prime; ValueError when q is no prime power.

    Pure arithmetic: no field is built, so orders past field_make's 2^16
    ceiling pass too.
    """
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    k = 0
    n = q
    while n > 1:
        if n % p:
            raise ValueError(f"{q} is not a prime power")
        n //= p
        k += 1
    return p, k
