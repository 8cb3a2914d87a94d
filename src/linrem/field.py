"""Prime-field arithmetic on canonical integer residues.

Elements are plain ints in range(q); no wrapper objects, so the hot
enumeration loops elsewhere in the package stay cheap.
"""

from __future__ import annotations

from .errors import NonPrimeModulus, SearchBudgetExceeded

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _WITNESSES (Sorenson and
# Webster, 2015): below it, a strong probable prime to all of them is prime.
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first thirteen prime bases.

    Exact for n < _PRIME_BOUND; at or above it raises SearchBudgetExceeded
    rather than guess.
    """
    if n >= _PRIME_BOUND:
        raise SearchBudgetExceeded(f"primality of {n} is not certified at or above {_PRIME_BOUND}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    # n - 1 = d * 2^s with d odd; n is a strong probable prime to base a
    # when a^d = 1 or a^(d * 2^i) = -1 for some i < s.
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        if pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(s)):
            return False
    return True


def next_prime_above(x: int) -> int:
    """Smallest prime strictly greater than x."""
    n = max(x + 1, 2)
    while not is_prime(n):
        n += 1
    return n


class PrimeField:
    """Arithmetic mod a prime q. All ops take and return ints in range(q)."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not is_prime(q):
            raise NonPrimeModulus(f"{q} is not prime")
        self.q = q

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def element(self, x: int) -> int:
        """Canonical residue of an arbitrary integer."""
        return x % self.q

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.q}")
        return pow(a, -1, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))
