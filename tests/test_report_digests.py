"""Byte stability of the exact reports across code changes.

The SHA-256 digests below were recorded from a fixed command matrix; a
refactor of the exact pipeline must reproduce every report byte for byte.
Most pinned reports are made of exact rationals, strings and verdicts.
``worst_case.csv`` has a ``ratio`` column, a quotient of two exact integers
written in Python's shortest round-trip float form.  Three cases pin float
reports (``eval``, ``asymptotics`` and ``growth --task fit``) on the dense
non-radial spec, so they also pin the order in which series evaluation sums
its terms; they assume IEEE doubles, the C library's ``log`` (through
``math.log``) and ``math.fsum``, which the least-squares fit sums with.  The
last two pin the float records of the truncation-rule checks
(``growth --task truncation`` and ``lemma``).
The first case also pins ``contour.json``, the float report of the contour
sweep, and with it the Halton sample points of :mod:`bergman.sampling`.
"""

import hashlib
import json

import pytest

from bergman.cli import main

# A non-radial Hermitian potential: |x|^2 + (x^2 conj(x) + x conj(x)^2)/4
# - |x|^4/8 + (x^3 conj(x) + x conj(x)^3)/6.
NON_RADIAL_SPEC = {
    "n": 1,
    "trunc_degree": 10,
    "eval_radius": 0.3,
    "terms": [
        {"alpha": [1], "beta": [1], "num": 1, "den": 1},
        {"alpha": [2], "beta": [1], "num": 1, "den": 4},
        {"alpha": [1], "beta": [2], "num": 1, "den": 4},
        {"alpha": [2], "beta": [2], "num": -1, "den": 8},
        {"alpha": [3], "beta": [1], "num": 1, "den": 6},
        {"alpha": [1], "beta": [3], "num": 1, "den": 6},
    ],
}

# An n=1 potential with pure holomorphic terms, so the phase has x- and
# y-linear parts besides z: |x|^2 + (x^2 + conj(x)^2)/3 + (x^3 + conj(x)^3)/7
# + (x^2 conj(x) + x conj(x)^2)/5 - |x|^4/6.
HOLOMORPHIC_SPEC = {
    "n": 1,
    "trunc_degree": 10,
    "eval_radius": 0.3,
    "terms": [
        {"alpha": [1], "beta": [1], "num": 1, "den": 1},
        {"alpha": [2], "beta": [0], "num": 1, "den": 3},
        {"alpha": [0], "beta": [2], "num": 1, "den": 3},
        {"alpha": [3], "beta": [0], "num": 1, "den": 7},
        {"alpha": [0], "beta": [3], "num": 1, "den": 7},
        {"alpha": [2], "beta": [1], "num": 1, "den": 5},
        {"alpha": [1], "beta": [2], "num": 1, "den": 5},
        {"alpha": [2], "beta": [2], "num": -1, "den": 6},
    ],
}

# A non-radial n=2 potential with an off-diagonal Hessian: |x|^2
# + (x_1 conj(x_2) + x_2 conj(x_1))/4 + (x_1^2 conj(x_2) + x_2 conj(x_1)^2)/5
# + (x_1 x_2 + conj(x_1 x_2))/7 - |x_1 x_2|^2/6.
NON_RADIAL_N2_SPEC = {
    "n": 2,
    "trunc_degree": 6,
    "eval_radius": 0.2,
    "terms": [
        {"alpha": [1, 0], "beta": [1, 0], "num": 1, "den": 1},
        {"alpha": [0, 1], "beta": [0, 1], "num": 1, "den": 1},
        {"alpha": [1, 0], "beta": [0, 1], "num": 1, "den": 4},
        {"alpha": [0, 1], "beta": [1, 0], "num": 1, "den": 4},
        {"alpha": [2, 0], "beta": [0, 1], "num": 1, "den": 5},
        {"alpha": [0, 1], "beta": [2, 0], "num": 1, "den": 5},
        {"alpha": [1, 1], "beta": [0, 0], "num": 1, "den": 7},
        {"alpha": [0, 0], "beta": [1, 1], "num": 1, "den": 7},
        {"alpha": [1, 1], "beta": [1, 1], "num": -1, "den": 6},
    ],
}

SPEC_FILES = {
    "spec.json": NON_RADIAL_SPEC,
    "holomorphic.json": HOLOMORPHIC_SPEC,
    "n2.json": NON_RADIAL_N2_SPEC,
}

# (argv, expected exit code, {report file: sha256})
MATRIX = [
    (
        ["polarize", "--spec", "spec.json"],
        0,
        {
            "geometry.json":
                "f78d04086b9a256c29a8ccff1149283c63e1126ab9f15e1be08a243ac3d835db",
            "contour.json":
                "e306d04f28733ee8087a941dde3ae5cd5e170cea170b7fcbda40d598fcf609f5",
        },
    ),
    (
        ["polarize", "--preset", "chsc", "--n", "2", "--param", "-1", "--degree", "6"],
        0,
        {
            "geometry.json":
                "4b5a3bda35692c2266e778790263c1bdb8004a084747495a5065ce25fd21ed1e",
        },
    ),
    (
        ["coeffs", "--spec", "spec.json", "--order", "4", "--transport-order", "4"],
        0,
        {
            "coefficients.json":
                "babf63866b9bb029e48ed64670aeac14740b49b0d121a69963ebf45ca39d0fe1",
            "transport.json":
                "245b4ede6613915a33a026d852ff7fe512a654932e5d530c0b78ae02b72c8fb5",
            "crosscheck.json":
                "52c499de22baa62b0aa29b56f595936d77d78de667714d71c800ec2c2015447d",
        },
    ),
    (
        ["coeffs", "--preset", "chsc", "--n", "2", "--param", "1/2", "--degree", "8",
         "--order", "3"],
        0,
        {
            "coefficients.json":
                "c248699aa664e12a88b93c1cefc87ea0887f1d84d126b00ba6522d9c6dd728ee",
            "transport.json":
                "b676434ffddb80af188b2831528b260b8363c2231ff882a7012353d08cc3151e",
            "crosscheck.json":
                "d6bdfcfdc0ff4cddb846438eb77d78c8c529f532ab8bf899543ce18066df20e1",
        },
    ),
    (
        ["coeffs", "--preset", "quartic", "--n", "1", "--param", "1/10", "--degree", "10",
         "--order", "4", "--transport-order", "2"],
        0,
        {
            "coefficients.json":
                "2903f4a0691d767828187788710f9398c629f610b207299280c663108ac66318",
            "transport.json":
                "36fde3e921c630ad56afc2d99ef72de29b59aa2dbf4295c23a9fa6e96d45146c",
            "crosscheck.json":
                "4cfe08dc21cc139d1d9f13b9721b87f4ecdc079d9d9ff4415efb3ae4c8057e01",
        },
    ),
    (
        ["chsc-check", "--n", "2", "--param", "1", "--order", "3"],
        0,
        {
            "chsc_check.json":
                "d55ad9c80c776d907cac3f956dcd8c82ea71fe924d2c15f2d01ee6ac0073a153",
        },
    ),
    (
        ["growth", "--task", "worst-case", "--n", "1", "--order", "4", "--kmax", "4"],
        0,
        {
            "worst_case.json":
                "b1eb2c523ae20273d359892e52f00dbc91d08573fc44a5999c5d19ede443ab48",
            "worst_case.csv":
                "0bff858c97da77e7e118db5e9348291a31264dacaf7ef7b1fadb9afaa0fd50e3",
        },
    ),
    (
        ["coeffs", "--spec", "holomorphic.json", "--order", "4", "--transport-order", "4"],
        0,
        {
            "coefficients.json":
                "aef86a46075d7e2d766adecd4eb5c513355773f255a28fabf3004dd9b5ad9a65",
            "transport.json":
                "7a75c42f75e179fb54bd799a5506ac87e598201e2c39d101850745d71d41ce51",
            "crosscheck.json":
                "fe1263cca340c969367d6700e103627cf6b5ce7cfea2600542d73b0e196ae0bf",
        },
    ),
    (
        ["polarize", "--spec", "n2.json"],
        0,
        {
            "geometry.json":
                "07d2af79dd1da7ed8179e3a6fc7f78f531936db06c383e58c0952e210eda3e83",
        },
    ),
    # n=3 composes in 3n = 9 variables, the widest exponent key of the matrix
    (
        ["coeffs", "--preset", "chsc", "--n", "3", "--param", "1/3", "--degree", "8",
         "--order", "2"],
        0,
        {
            "coefficients.json":
                "5f28f673eb06d2edd540fd2e54c58dfbb034086023e17aaac5e069b694dfaffe",
            "transport.json":
                "431eaed7e2b9fd7032fd3121022290e073ee94980309cec31d3e14d5a7bdf89f",
            "crosscheck.json":
                "dcf847d71519aaf04b1e5be514f97a57d499691e02502b7d1b2c1ba357e23bd4",
        },
    ),
    # float reports, read from the table that TABLE_ARGV writes to table/
    (
        ["eval", "--spec", "spec.json", "--coeffs", "table/coefficients.json", "--k", "40",
         "--order", "4", "--x", "0.1+0.05j", "--y", "0.12-0.03j"],
        0,
        {
            "kernel_report.json":
                "74850cbeb9b766a203f1c40cf17d818665c8785c95380424d263a6dde854ef32",
        },
    ),
    (
        ["asymptotics", "--spec", "spec.json", "--mode", "log",
         "--coeffs", "table/coefficients.json", "--x", "0.1+0.05j", "--y", "0.12-0.03j"],
        0,
        {
            "asymptotics.json":
                "8e3d24a982b4fc2bf3f6b554732c9673609752113c02a657907630bcda712a3c",
            "asymptotics.csv":
                "84cee4367ab8e5ecb1007a86c8ad644f0b0e7a0ef12b614c730ad1ddcddcf8fb",
        },
    ),
    (
        ["growth", "--spec", "spec.json", "--task", "fit", "--coeffs", "table/coefficients.json",
         "--xi-max", "1"],
        0,
        {
            "growth_fit.json":
                "6b839649e9b3c9538534f64672ab7b9f46a0d1ab7027a50d7c33e63840f85df6",
            "norms.csv":
                "457eca38e18feec061463d975688de7568878ac032c44dccd7b51fe719c22f05",
        },
    ),
    # the float records of the two truncation-rule checks
    (
        ["growth", "--task", "truncation", "--C", "0.7", "--k", "250"],
        0,
        {
            "truncation.json":
                "eefc4d2cf417a05bb9499511ed48704aaed536326724a26ef9b2fcbd19e0ee40",
        },
    ),
    (
        ["growth", "--task", "lemma", "--deltas", "0.25,1,3", "--n-max", "8", "--k-max", "3000"],
        0,
        {
            "lemma_sweep.json":
                "5c93c3c0455ef44eb47dd31a1c98f34ff3250fa6c2c463278684c46c0d345d6f",
        },
    ),
]

# The coefficient table the float cases read: b_0..b_4 of spec.json.
TABLE_ARGV = ["coeffs", "--spec", "spec.json", "--order", "4", "--transport-order", "0",
              "--out", "table"]


@pytest.mark.parametrize("case", range(len(MATRIX)))
def test_reports_match_pinned_digests(tmp_path, monkeypatch, case):
    argv, want_rc, want = MATRIX[case]
    monkeypatch.chdir(tmp_path)
    for name, record in SPEC_FILES.items():
        (tmp_path / name).write_text(json.dumps(record))
    if "--coeffs" in argv:
        assert main(TABLE_ARGV) == 0
    assert main(argv + ["--out", "out"]) == want_rc
    got = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in want
    }
    assert got == want
