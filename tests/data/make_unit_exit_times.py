"""Write unit_exit_times.csv: reference points of the unit exit-time distribution.

The simulator's exit-time sampler is tested against this table: the
empirical distribution of its draws must lie within a Kolmogorov-Smirnov
bound of it.

Each row is a survival probability u (a double, written exactly by repr) and
the t with P(T > t) = u for the exit time T of a standard Brownian motion from
(-1, 1), to 40 significant digits. The roots are solved with mpmath at 60
digits on both theta series, each summed until its terms fall below 1e-70,
and the two series must agree at the root. The u values span 2^-55 to
1 - 2^-53, on both sides of S(1/2). Run once from the repository root with
mpmath installed:

    python tests/data/make_unit_exit_times.py
"""
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 60


def survival_long(t):
    terms = int(mp.sqrt(170 * 8 / (mp.pi**2 * t))) // 2 + 2  # exp(-170) < 1e-70
    return 4 / mp.pi * mp.fsum((-1) ** k / mp.mpf(2 * k + 1) * mp.exp(-((2 * k + 1) ** 2) * mp.pi**2 * t / 8)
                               for k in range(terms))


def cdf_short(t):
    z = 1 / mp.sqrt(2 * t)
    terms = int(13 / z) // 2 + 2  # erfc(13) < 1e-70
    return 2 * mp.fsum((-1) ** k * mp.erfc((2 * k + 1) * z) for k in range(terms))


def root(u: float):
    u = mp.mpf(u)
    q = 1 - u
    half = survival_long(mp.mpf(0.5))
    if u < half:
        # log form keeps the solve well scaled down to u = 2^-55
        f = lambda t: mp.log(survival_long(t)) - mp.log(u)
        t0 = -8 / mp.pi**2 * mp.log(mp.pi * u / 4)
    else:
        f = lambda t: mp.log(cdf_short(t)) - mp.log(q)
        t0 = 1 / (2 * mp.erfinv(1 - q / 2) ** 2)
    t = mp.findroot(f, t0, tol=mp.mpf(10) ** -55)
    assert abs(survival_long(t) / u - 1) <= mp.mpf(10) ** -45, u
    assert abs(cdf_short(t) / q - 1) <= mp.mpf(10) ** -45, u
    return t


def survivals() -> list:
    half = float(survival_long(mp.mpf(0.5)))
    us = [2.0**-k for k in range(55, 0, -1)] + [1.0 - 2.0**-k for k in range(2, 54)]
    us += list(np.logspace(-16.5, np.log10(half), 120, endpoint=False))
    us += list(np.linspace(0.05, 0.95, 91))
    us += list(1.0 - np.logspace(-15.9, np.log10(1.0 - half), 120, endpoint=False))
    us += [float(np.nextafter(half, 0.0)), half, float(np.nextafter(half, 1.0))]
    us += list(np.random.default_rng(2012).random(200) + 2.0**-55)
    return sorted(set(float(u) for u in us if 0.0 < u < 1.0))


def main() -> None:
    out = Path(__file__).with_name("unit_exit_times.csv")
    lines = ["# u,t: P(T > t) = u for the exit time T of a standard Brownian motion from (-1, 1)",
             "# written by make_unit_exit_times.py with mpmath; t to 40 significant digits"]
    lines += [f"{u!r},{mp.nstr(root(u), 40)}" for u in survivals()]
    out.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
