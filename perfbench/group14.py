"""RFC 3526 group 14: the 2048-bit MODP safe prime, rebuilt from pi.

The prime is defined by RFC 3526 section 3 as

    p = 2^2048 - 2^1984 - 1 + 2^64 * ( [2^1918 pi] + 124476 )

so it can be derived offline: pi comes from Machin's formula in integer
arithmetic, the result is checked against the RFC's leading words, and
both ``p`` and ``(p - 1) / 2`` must pass the library's own Miller-Rabin
test before any workload uses it.
"""

from __future__ import annotations

# The first five 32-bit words of the prime as printed in RFC 3526.
RFC3526_LEADING_WORDS = "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B"

_GUARD_BITS = 64

# Miller-Rabin rounds for each of p and (p - 1) / 2.
_MR_ROUNDS = 8


def _arctan_inverse(x: int, one: int) -> int:
    """``arctan(1/x) * one`` by its Taylor series, in integers."""
    term = one // x
    total = term
    x_squared = x * x
    n = 1
    sign = -1
    while term:
        term //= x_squared
        n += 2
        total += sign * (term // n)
        sign = -sign
    return total


def pi_floor(bits: int) -> int:
    """``floor(2^bits * pi)`` via Machin: pi = 16 atan(1/5) - 4 atan(1/239).

    Guard bits absorb the series' truncation error; the primality check
    of the resulting group prime confirms the floor came out exact.
    """
    one = 1 << (bits + _GUARD_BITS)
    pi = 16 * _arctan_inverse(5, one) - 4 * _arctan_inverse(239, one)
    return pi >> _GUARD_BITS


def group14_prime() -> int:
    """The RFC 3526 group 14 prime (unverified; see :func:`verified_group14_prime`)."""
    return 2**2048 - 2**1984 - 1 + 2**64 * (pi_floor(1918) + 124476)


def verified_group14_prime() -> int:
    """Build the prime and check it; raises ``ValueError`` on any mismatch."""
    from repro.crypto import DeterministicRng
    from repro.crypto.primes import is_probable_prime

    p = group14_prime()
    leading = "".join(RFC3526_LEADING_WORDS.split()).lower()
    if p.bit_length() != 2048 or not format(p, "x").startswith(leading):
        raise ValueError("rebuilt group-14 prime does not match RFC 3526")
    rng = DeterministicRng(b"perfbench-group14")
    if not is_probable_prime(p, rounds=_MR_ROUNDS, rng=rng):
        raise ValueError("rebuilt group-14 prime failed Miller-Rabin")
    if not is_probable_prime((p - 1) // 2, rounds=_MR_ROUNDS, rng=rng):
        raise ValueError("rebuilt group-14 prime is not a safe prime")
    return p
