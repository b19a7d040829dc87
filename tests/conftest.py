from fractions import Fraction
from importlib import resources

import pytest

from supervec.files import load_bundled_manifold
from supervec.liealg import hc_pair_report, solve_global_fields, structure_constants
from supervec.scalars import GaussianRational


def bundled_manifold_names():
    root = resources.files("supervec").joinpath("manifolds")
    return sorted(p.name[: -len(".smf")] for p in root.iterdir() if p.name.endswith(".smf"))


@pytest.fixture(scope="session")
def manifolds():
    names = [
        "k-1", "k0", "k1", "k2", "k3", "k5",
        "split-2-2", "split-3-1", "nonsplit-2-2", "c01",
    ]
    return {name: load_bundled_manifold(name) for name in names}


@pytest.fixture(scope="session")
def basis_cache(manifolds):
    cache = {}

    def get(name, cap=None):
        key = (name, cap)
        if key not in cache:
            cache[key] = solve_global_fields(manifolds[name], cap)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def structure_cache(basis_cache):
    cache = {}

    def get(name, cap=None):
        key = (name, cap)
        if key not in cache:
            cache[key] = structure_constants(basis_cache(name, cap))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def report_cache(manifolds):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = hc_pair_report(manifolds[name])
        return cache[name]

    return get


def rand_fraction(rng, span=3, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_sl2(rng):
    """Random rational matrix with determinant exactly 1."""
    while True:
        a = rand_fraction(rng)
        b = rand_fraction(rng)
        c = rand_fraction(rng)
        if a == 0:
            continue
        return ((a, b), (c, (1 + b * c) / a))


def matmul2(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def commutator2(A, B):
    AB, BA = matmul2(A, B), matmul2(B, A)
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(AB, BA))


def neg2(A):
    return ((-A[0][0], -A[0][1]), (-A[1][0], -A[1][1]))


def gr(x):
    return GaussianRational(x)


def idx_parity(idx):
    """Parity of theta^idx: the number of its odd factors, mod 2."""
    return idx.bit_count() & 1
