import tracemalloc

import numpy as np
import pytest

from odnsparse import (
    GeneratorSpecError,
    OdnMatrix,
    generate_odn,
    parse_generator_spec,
    validate_odn,
)
from odnsparse import generators


def reference_erdos_renyi(n, density, seed, weight=None, diag=None):
    """The generator before row blocks: one draw over all n(n-1)/2 pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < density
    i, j = i[keep], j[keep]
    values = np.full(len(i), weight) if weight is not None else 1.0 - rng.random(len(i))
    diagonal = rng.uniform(diag[1], diag[2], size=n) if diag else np.zeros(n)
    return OdnMatrix(n, i, j, values, diagonal)


class TestModels:
    def test_path_unit_weights(self):
        m = generate_odn("path", 3, weight=1.0, diag=1.0)
        np.testing.assert_array_equal(
            m.to_dense(), [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        )

    def test_complete_two_vertices(self):
        m = generate_odn("complete", 2, weight=5.0, diag=0.0)
        np.testing.assert_array_equal(m.to_dense(), [[0, 5], [5, 0]])

    def test_complete_edge_count(self):
        assert generate_odn("complete", 10).stored_pairs == 45

    def test_grid_structure(self):
        m = generate_odn("grid", rows=3, cols=4, weight=1.0)
        assert m.n == 12
        assert m.stored_pairs == 3 * 3 + 2 * 4  # right + down edges

    def test_equicorrelation_defaults(self):
        m = generate_odn("equicorrelation", 5)
        np.testing.assert_array_equal(m.diag, np.ones(5))
        assert np.all(m.vals == 0.5)

    def test_erdos_renyi_determinism(self):
        a = generate_odn("erdos-renyi", 100, density=0.3, seed=42)
        b = generate_odn("erdos-renyi", 100, density=0.3, seed=42)
        assert a == b
        c = generate_odn("erdos-renyi", 100, density=0.3, seed=43)
        assert a != c

    @pytest.mark.parametrize("block", [generators._PAIR_BLOCK, 500, 1])
    def test_erdos_renyi_row_blocks_match_full_draw(self, block, monkeypatch):
        monkeypatch.setattr(generators, "_PAIR_BLOCK", block)
        for n in (1, 2, 50, 700) if block > 1 else (1, 2, 50):
            for density in (0.0, 0.01, 0.3, 1.0):
                for seed in range(3):
                    for extra in ({}, {"diag": ("uniform", 0.0, 1.0)}, {"weight": 2.0}):
                        got = generate_odn("erdos-renyi", n, density=density,
                                           seed=seed, **extra)
                        assert got == reference_erdos_renyi(n, density, seed, **extra)

    def test_erdos_renyi_memory(self):
        tracemalloc.start()
        try:
            m = generate_odn("erdos-renyi", 5000, density=0.004, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.003 < m.stored_pairs / (5000 * 4999 / 2) < 0.005
        # Measured: 10.2 MB; 312 MB when all 12.5M pairs were enumerated at once.
        assert peak < 40e6

    def test_erdos_renyi_density(self):
        m = generate_odn("erdos-renyi", 60, density=0.25, seed=0)
        total = 60 * 59 // 2
        assert 0.15 * total < m.stored_pairs < 0.35 * total

    def test_weights_in_unit_interval(self):
        m = generate_odn("complete", 30, seed=5)
        assert np.all(m.vals > 0)
        assert np.all(m.vals <= 1.0)

    def test_uniform_diag(self):
        m = generate_odn("path", 50, diag=("uniform", -1.0, 2.0), seed=8)
        assert np.all(m.diag >= -1.0)
        assert np.all(m.diag < 2.0)

    @pytest.mark.parametrize("low,high", [(0.0, float("inf")), (float("-inf"), 0.0),
                                          (float("nan"), 1.0), (1.0, 0.0)],
                             ids=["high-inf", "low-inf", "low-nan", "reversed"])
    def test_uniform_diag_bounds_rejected(self, low, high):
        with pytest.raises(GeneratorSpecError, match="uniform"):
            generate_odn("complete", 4, diag=("uniform", low, high))

    def test_uniform_diag_equal_bounds(self):
        m = generate_odn("complete", 4, diag=("uniform", 0.5, 0.5))
        assert np.array_equal(m.diag, np.full(4, 0.5))

    def test_all_models_validate(self):
        specs = [
            ("complete", dict(n=8)),
            ("path", dict(n=8)),
            ("grid", dict(rows=2, cols=4)),
            ("erdos-renyi", dict(n=8, density=0.5)),
            ("equicorrelation", dict(n=8)),
        ]
        for model, kwargs in specs:
            m = generate_odn(model, seed=1, **kwargs)
            assert validate_odn(m.to_dense()) == m

    @pytest.mark.parametrize(
        "model,kwargs",
        [
            ("nonsense", dict(n=3)),
            ("complete", dict(n=0)),
            ("complete", dict(n=3, weight=0.0)),
            ("erdos-renyi", dict(n=3)),
            ("erdos-renyi", dict(n=3, density=1.5)),
            ("grid", dict(n=6)),
            ("grid", dict(rows=2, cols=3, n=7)),
            ("equicorrelation", dict(n=3, correlation=2.0)),
        ],
    )
    def test_invalid_specs(self, model, kwargs):
        with pytest.raises(GeneratorSpecError):
            generate_odn(model, **kwargs)


class TestSpecParsing:
    def test_basic(self):
        spec = parse_generator_spec("complete:n=50")
        assert spec == {"model": "complete", "n": 50}

    def test_full(self):
        spec = parse_generator_spec(
            "erdos-renyi:n=100,density=0.3,seed=4,diag=uniform(0,1)"
        )
        assert spec == {
            "model": "erdos-renyi",
            "n": 100,
            "density": 0.3,
            "seed": 4,
            "diag": ("uniform", 0.0, 1.0),
        }

    def test_constant_diag_and_aliases(self):
        spec = parse_generator_spec("grid:rows=4,cols=5,w=2.5,diag=1")
        assert spec == {
            "model": "grid",
            "rows": 4,
            "cols": 5,
            "weight": 2.5,
            "diag": 1.0,
        }
        assert parse_generator_spec("equicorrelation:n=9,r=0.7")["correlation"] == 0.7

    def test_round_trip_through_generate(self):
        m = generate_odn(**parse_generator_spec("path:n=3,w=1,diag=1"))
        np.testing.assert_array_equal(
            m.to_dense(), [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        )

    @pytest.mark.parametrize(
        "text",
        [
            "bogus:n=3",
            "complete:n",
            "complete:n=",
            "complete:n=abc",
            "complete:n=3,unknown=1",
            "path:n=3,diag=uniform(1)",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec(text)
