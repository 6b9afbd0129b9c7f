"""Prime utilities: deterministic primality, sieves, factorization."""

from __future__ import annotations

import numpy as np

from .errors import BudgetError, DomainError

# The first 13 primes as witnesses prove primality for every n below
# psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the first 12 stop at
# psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # psi_13

# The largest trial divisor of `factorize`, about a second of work; no
# variable raises it
_TRIAL_CAP = 10**7


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < psi_13 ~ 3.3e24."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise DomainError(f"is_prime is proven only below {_MR_LIMIT}, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= n:
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
        i += 1
    return np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8)).tolist()


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as sorted (p, exponent) pairs.

    Trial division, which stops as soon as the cofactor is 1 or passes
    `is_prime` (tested at the start and after each prime divided out).
    The divisors stop at _TRIAL_CAP, about a second of work: a cofactor
    still left there is composite with every prime factor above the cap,
    or at least psi_13 and so beyond the primality test, and raises
    BudgetError.  Every m whose second-largest prime factor (counted with
    multiplicity) is at most the cap, and whose largest is below psi_13,
    factors in full.
    """
    if m < 1:
        raise DomainError(f"factorize needs m >= 1, got {m}")
    out: list[tuple[int, int]] = []
    rest = m
    p = 2
    prime = rest < _MR_LIMIT and is_prime(rest)
    while not prime and p * p <= rest:
        if p > _TRIAL_CAP:
            raise BudgetError(
                f"factorize: a {rest.bit_length()}-bit cofactor has no prime factor up to "
                f"{_TRIAL_CAP}, and trial division stops there"
            )
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            out.append((p, k))
            prime = rest < _MR_LIMIT and is_prime(rest)
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out
