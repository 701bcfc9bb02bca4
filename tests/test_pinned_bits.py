"""Bit identity of the six functions whose quadrature contraction runs
through quadrature._guarded, pinned as one SHA-256 of float.hex results.

The calls are seeded, at integrand scales 1e-300, 1, 1e300, 1e307 and
1.5e308..1.7e308.  The digest covers only the calls that gave finite results
without a warning when it was made; their bits must not move.  Run this file
as a script to print EXCLUDED and DIGEST for the code it imports.
"""

import hashlib
import math
import random
import sys
import textwrap
import warnings

import numpy as np
import pytest

import hermite_kit as hk

PINNED_ON = ("3.11.7", "2.4.6")   # Python and numpy versions the digest was made with
FUNCTIONS = ("integrate_weighted", "integrate_cubature", "integrate_whole_line",
             "fourier_hermite_coeffs", "wce_coeffs_1d", "wce_coeffs_multi")
SCALES = (1e-300, 1.0, 1e300, 1e307, None)   # None: uniform in 1.5e308..1.7e308
CALLS_PER_SCALE = 40


def _integrand(rng, scale, points, dimension):
    # f at `points` calls: a polynomial of degree <= 4 in the coordinates, or
    # seeded per-point values (f is called once per point, in order)
    if rng.random() < 0.5:
        values = iter([scale * rng.uniform(-1.0, 1.0) * (rng.random() < 0.9)
                       for _ in range(points)])
        return lambda x: next(values)
    coeffs = [[scale * rng.uniform(-1.0, 1.0) for _ in range(dimension)] for _ in range(5)]
    gaussian = rng.random() < 0.5

    def f(x):
        x = np.atleast_1d(x)
        total = sum(c * float(x[j]) ** k for k, row in enumerate(coeffs) for j, c in enumerate(row))
        return total * math.exp(-float(x @ x) / 2) if gaussian else total
    return f


def _calls(per_scale=CALLS_PER_SCALE, seed=21):
    # (index, zero-argument call) pairs, in a fixed order
    rng = random.Random(seed)
    index = 0
    for name in FUNCTIONS:
        for scale in SCALES:
            for _ in range(per_scale):
                s = scale if scale is not None else rng.uniform(1.5e308, 1.7e308)
                if name == "integrate_cubature":
                    d, n = rng.randint(1, 3), rng.randint(1, 8)
                    args = (hk.tensor_cubature(d, n),)
                    f = _integrand(rng, s, n**d, d)
                elif name == "wce_coeffs_multi":
                    d, order = rng.randint(1, 3), rng.randint(0, 4)
                    q = order + 2 + rng.randint(0, 4)
                    args, f = (d, order, q), _integrand(rng, s, q**d, d)
                elif name.startswith("integrate"):
                    n = rng.randint(1, 40)
                    args, f = (hk.gauss_hermite_rule(n),), _integrand(rng, s, n, 1)
                else:
                    order = rng.randint(0, 12)
                    q = order + 2 + rng.randint(0, 10)
                    args, f = (order, q), _integrand(rng, s, q, 1)
                yield index, lambda fn=getattr(hk, name), f=f, args=args: fn(f, *args)
                index += 1


def _floats(result):
    if isinstance(result, float):
        return [result]
    if isinstance(result, hk.HermiteSeries):
        return list(result.coeffs)
    return [float(x) for tensor in result.tensors for x in np.ravel(tensor)]


def _line(index, result):
    return f"{index} {' '.join(x.hex() for x in _floats(result))}\n"


EXCLUDED = frozenset({121, 123, 128, 132, 135, 137, 138, 139, 140, 142, 145, 146, 149, 153, 155,
                    158, 162, 163, 167, 170, 171, 176, 178, 179, 181, 182, 187, 188, 189, 190,
                    191, 192, 195, 196, 197, 198, 199, 322, 325, 328, 331, 333, 335, 336, 340,
                    341, 345, 346, 350, 357, 360, 361, 362, 363, 364, 365, 366, 367, 370, 371,
                    372, 374, 376, 378, 379, 380, 381, 384, 385, 386, 387, 389, 390, 391, 392,
                    393, 394, 396, 398, 399, 520, 524, 526, 527, 529, 530, 532, 533, 534, 540,
                    542, 544, 550, 554, 556, 558, 560, 561, 562, 563, 564, 565, 566, 567, 568,
                    569, 570, 571, 572, 573, 574, 575, 576, 577, 579, 580, 581, 582, 583, 584,
                    585, 586, 587, 588, 589, 592, 593, 594, 595, 596, 597, 598, 599, 720, 722,
                    723, 724, 725, 726, 727, 728, 730, 731, 734, 735, 736, 738, 739, 740, 741,
                    744, 745, 746, 747, 748, 752, 753, 756, 757, 759, 760, 761, 762, 763, 764,
                    765, 766, 768, 769, 770, 771, 772, 773, 774, 775, 776, 777, 778, 779, 780,
                    781, 782, 783, 784, 785, 786, 787, 788, 789, 790, 791, 792, 793, 794, 795,
                    796, 797, 798, 799, 920, 922, 923, 926, 928, 930, 931, 933, 935, 936, 937,
                    938, 939, 940, 942, 946, 947, 948, 949, 951, 952, 953, 954, 956, 957, 960,
                    961, 964, 965, 966, 967, 969, 970, 971, 974, 977, 978, 980, 981, 982, 983,
                    986, 989, 998, 1123, 1126, 1128, 1129, 1132, 1134, 1136, 1137, 1138, 1140,
                    1142, 1143, 1144, 1145, 1146, 1147, 1150, 1157, 1158, 1159, 1162, 1164,
                    1165, 1166, 1170, 1171, 1172, 1174, 1176, 1180, 1183, 1185, 1186, 1188,
                    1191, 1192, 1193, 1194, 1195, 1197})
DIGEST = 'b0d3dd1d2d82c426f56909936e943e6f8f3800850ba84fde2e0e48cef45e9ac4'


@pytest.mark.skipif((sys.version.split()[0], np.__version__) != PINNED_ON,
                    reason=f"digest pinned on Python {PINNED_ON[0]}, numpy {PINNED_ON[1]}")
def test_finite_results_keep_their_bits():
    digest = hashlib.sha256()
    for index, call in _calls():
        if index not in EXCLUDED:
            digest.update(_line(index, call()).encode())
    assert digest.hexdigest() == DIGEST


if __name__ == "__main__":
    excluded, digest = [], hashlib.sha256()
    for index, call in _calls():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                line = _line(index, call())
        except Exception:
            excluded.append(index)
            continue
        if not all(math.isfinite(float.fromhex(x)) for x in line.split()[1:]):
            excluded.append(index)
            continue
        digest.update(line.encode())
    print(textwrap.fill(f"EXCLUDED = frozenset({{{', '.join(map(str, excluded))}}})", 96,
                        subsequent_indent=" " * 20, break_on_hyphens=False))
    print(f"DIGEST = {digest.hexdigest()!r}")
