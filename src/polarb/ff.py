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


def _poly_mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


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
    polynomial; ``primitive`` is the code of a verified generator of the
    multiplicative group; ``exp``/``log`` are the usual discrete tables with
    exp[i] = primitive^i for 0 <= i < order-1.
    """

    p: int
    k: int
    order: int
    poly: tuple[int, ...]
    primitive: int
    exp: tuple[int, ...]
    log: tuple[int, ...]

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    @property
    def has_conjugation(self) -> bool:
        return self.k % 2 == 0

    def conjugate(self, a: int) -> int:
        """The involutive automorphism x -> x^sqrt(order); needs a square order."""
        if not self.has_conjugation:
            raise ValueError(f"GF({self.order}) has no conjugation: order is not a square")
        if a == 0:
            return 0
        root = self.p ** (self.k // 2)
        return self.exp[(self.log[a] * root) % (self.order - 1)]


def _mul_raw(a: int, b: int, p: int, k: int, poly: tuple[int, ...]) -> int:
    """Table-free polynomial-basis product, used only while bootstrapping tables."""
    da = _poly_from_code(a, p, k)
    db = _poly_from_code(b, p, k)
    prod = _poly_mul_mod_p(list(da), list(db), p)
    rem = _poly_rem(prod, list(poly) + [1], p)
    out = 0
    for c in reversed(rem):
        out = out * p + c
    return out


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> FieldSpec:
    """Construct GF(p^k) with exp/log tables and a verified primitive element."""
    if not _is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    order = p**k
    if order > MAX_ORDER:
        raise ValueError(f"field order {order} exceeds the 2^16 ceiling")
    poly = least_irreducible(p, k)

    # Scan for a primitive element; filling the exp table *is* the order check.
    log = [0] * order
    for cand in range(2, order):
        exp = [1]
        log_try = [-1] * order
        log_try[1] = 0
        x = 1
        ok = True
        for i in range(1, order - 1):
            x = _mul_raw(x, cand, p, k, poly)
            if x == 1:
                ok = False  # multiplicative order divides i < order-1
                break
            exp.append(x)
            log_try[x] = i
        if ok and _mul_raw(x, cand, p, k, poly) == 1:
            for code in range(1, order):
                log[code] = log_try[code]
            return FieldSpec(p, k, order, poly, cand, tuple(exp), tuple(log))
    if order == 2:
        return FieldSpec(2, 1, 2, poly, 1, (1,), (0, 0))
    raise ValueError(f"no primitive element found for GF({order})")  # unreachable


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
