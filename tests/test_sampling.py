"""Seeded sampling at degenerate shapes, from Python and through the CLI,
and the one body-isometry sampler of both modes."""

import json

import pytest

from supermetric.algebra import AlgebraConfig
from supermetric.canonical import validate_metric
from supermetric.cli import main
from supermetric.errors import ValidationError
from supermetric.sampling import (
    _pick,
    basis_for,
    make_rng,
    rand_homogeneous,
    random_body_isometry,
    random_member,
    random_metric,
    random_nil,
    standard_gamma,
)
from supermetric.verify import run_verify

RAT = AlgebraConfig(generator_count=2, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=2, coefficient_mode="float64")


@pytest.mark.parametrize("p, q, n", [(2, 0, 0), (1, 1, 2), (2, 1, 2),
                                     (2, 2, 4), (0, 0, 4)])
def test_float_body_isometry_is_the_rational_one_rounded(p, q, n):
    # one sampler: the same draws in both modes, float64 rounding each
    # exact entry once, and the rng stream left at the same place
    for seed in range(1, 6):
        exact_rng, float_rng = make_rng(seed), make_rng(seed)
        exact = random_body_isometry(exact_rng, standard_gamma(RAT, p, q, n))
        rounded = random_body_isometry(float_rng,
                                       standard_gamma(FLT, p, q, n))
        assert rounded == [[float(v) for v in row] for row in exact]
        assert all(type(v) is float for row in rounded for v in row)
        assert exact_rng.integers(0, 2 ** 62) == float_rng.integers(0, 2 ** 62)


@pytest.mark.parametrize("grades", [[1, 3], [2, 4], [0, 2, 4]])
def test_grade_draws_are_the_choice_stream(grades):
    # _pick stands in for rng.choice(grades): the same grades from the same
    # stream, which it leaves where choice leaves it
    for seed in range(5):
        a, b = make_rng(seed), make_rng(seed)
        for _ in range(2000):
            assert _pick(a, grades) == int(b.choice(grades))
        assert a.bit_generator.state == b.bit_generator.state


def test_random_metric_with_an_empty_block():
    # an empty block counts as invertible, so the retry loops end
    for m, n in ((0, 2), (2, 0), (0, 0)):
        G = random_metric(make_rng(3), RAT, m, n)
        assert tuple(G.shape) == (m, n)
        validate_metric(G)


def test_no_grade_to_sample_is_a_validation_error():
    one = AlgebraConfig(generator_count=1, coefficient_mode="rational")
    with pytest.raises(ValidationError, match="1 generator"):
        rand_homogeneous(make_rng(1), one, "even", include_body=False)
    assert rand_homogeneous(make_rng(1), one, "even").parity() \
        in ("even", "zero")
    # odd elements of a (1|2) basis need an odd grade, even ones a grade 2
    with pytest.raises(ValidationError, match="1 generator"):
        random_member(make_rng(1), basis_for(one, 1, 0, 2), terms=4,
                      soul_only=True)


def test_empty_basis_is_a_validation_error():
    basis = basis_for(RAT, 1, 0, 0)
    assert not basis.elements()
    for draw in (random_member, random_nil):
        with pytest.raises(ValidationError, match=r"\(1\|0\)"):
            draw(make_rng(1), basis)


@pytest.mark.parametrize("L, m, n", [(2, 0, 2), (2, 1, 0), (2, 1, 3),
                                     (1, 1, 2), (2, 0, 0), (4, 40, 2)])
def test_run_verify_refuses_what_the_cli_refuses(tmp_path, capsys, L, m, n):
    cfg = AlgebraConfig(generator_count=L, coefficient_mode="rational")
    with pytest.raises(ValidationError) as raised:
        run_verify(cfg, seed=1, m=m, n=n)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"generator_count": L, "m": m, "n": n,
                                "coefficient_mode": "rational"}))
    assert main(["verify", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == str(raised.value)
