"""Regenerate the 50-digit reference constants pinned in the test suite.

Uses mpmath's scalar (non-interval) transcendental functions at 60 decimal
digits, a code path disjoint from the interval arithmetic under test, so
the pinned strings act as an independent oracle.

Run:  python scripts/compute_reference_constants.py
"""
from mpmath import mp

mp.dps = 60


def main() -> None:
    zeta3 = mp.zeta(3)
    zeta_prime_minus_one = mp.zeta(-1, derivative=1)
    # Wright's constant B of PL(n) ~ B n^(-25/36) exp(3 (zeta(3)/4)^(1/3) n^(2/3))
    pl_prefactor = (
        zeta3 ** (mp.mpf(7) / 36)
        * mp.e**zeta_prime_minus_one
        * mp.power(2, -mp.mpf(11) / 36)
        / mp.sqrt(3 * mp.pi)
    )
    for name, value in (
        ("ZETA3", zeta3),
        ("ZETA_PRIME_MINUS_ONE", zeta_prime_minus_one),
        ("PL_PREFACTOR", pl_prefactor),
    ):
        print(f'{name} = "{mp.nstr(value, 50, strip_zeros=False)}"')


if __name__ == "__main__":
    main()
