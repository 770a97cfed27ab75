"""Dataset, splitting, and result-record tests."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppn.core import (CheckOutcome, DataSplit, Dataset, PpnOutcome, StudyReport,
                      pass_fail, split_data)
from ppn.errors import DataError, DimensionError, ParameterError
from ppn.rng import Seed


def _simple(n, d=2):
    return Dataset(np.arange(n * d, dtype=float).reshape(n, d))


class TestDataset:
    def test_shape_and_finiteness(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]))
        with pytest.raises(DimensionError):
            Dataset(np.empty((0, 2)))

    def test_covariates_only_continuous(self):
        with pytest.raises(DataError):
            Dataset(np.eye(2), covariates=np.ones((2, 1)),
                    kind="categorical-onehot", level_sizes=(2,))

    def test_covariate_row_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(np.ones((3, 1)), covariates=np.ones((2, 1)))

    def test_onehot_validation(self):
        Dataset(np.array([[1.0, 0.0, 0.0, 1.0]]), kind="categorical-onehot",
                level_sizes=(2, 2))
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, 1.0, 0.0, 1.0]]), kind="categorical-onehot",
                    level_sizes=(2, 2))
        with pytest.raises(DimensionError):
            Dataset(np.array([[1.0, 0.0]]), kind="categorical-onehot",
                    level_sizes=(3,))
        with pytest.raises(ParameterError):
            Dataset(np.array([[1.0, 0.0]]), kind="categorical-onehot")

    def test_codes_roundtrip(self):
        codes = np.array([[0, 2], [1, 0], [1, 1]])
        ds = Dataset.from_codes(codes, (2, 3))
        assert np.array_equal(ds.codes(), codes)
        with pytest.raises(DataError):
            Dataset.from_codes([[2, 0]], (2, 3))

    def test_codes_must_be_whole_numbers(self):
        # never truncated: 0.7 is not level 0, 2.9 not level 2
        for codes in ([[0.7, 1.0]], [[1.0, 1.2]], [[np.nan, 0.0]], [[np.inf, 0.0]]):
            with pytest.raises(DataError, match="whole numbers"):
                Dataset.from_codes(codes, (3, 2))
        ds = Dataset.from_codes([[2.0, 1.0], [0.0, 0.0]], (3, 2))
        assert np.array_equal(ds.codes(), [[2, 1], [0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for codes in ([[1e300, 0.0]], [[-1e300, 0.0]], [[3.0, 0.0]]):
                with pytest.raises(DataError, match="out of range"):
                    Dataset.from_codes(codes, (3, 2))

    def test_level_sizes_must_be_integers(self):
        for sizes in ((2.9, 2), (2.0, 2), (True, 2), ("3", 2), (0, 2)):
            with pytest.raises(ParameterError, match="a level size"):
                Dataset.from_codes([[0, 1]], sizes)
            with pytest.raises(ParameterError, match="a level size"):
                Dataset(np.array([[1.0, 0.0, 1.0]]), kind="categorical-onehot",
                        level_sizes=sizes)
        assert Dataset.from_codes([[0, 1]], (np.int64(3), 2)).level_sizes == (3, 2)

    def test_csv_categorical_code_not_whole(self):
        with pytest.raises(DataError, match="whole numbers"):
            Dataset.from_csv("#levels=3,2\nv1,v2\n1.5,0\n2.9,1\n")
        back = Dataset.from_csv("#levels=3,2\nv1,v2\n1.0,0\n2,1\n")
        assert np.array_equal(back.codes(), [[1, 0], [2, 1]])

    def test_csv_roundtrip_continuous(self):
        ds = Dataset(np.array([[1.5, -2.25], [0.125, 3.0]]))
        back = Dataset.from_csv(ds.to_csv())
        assert np.array_equal(back.values, ds.values)
        assert back.covariates is None

    def test_csv_roundtrip_covariates(self):
        ds = Dataset(np.array([[1.0], [2.0]]), covariates=np.array([[3.0, 4.0], [5.0, 6.0]]))
        back = Dataset.from_csv(ds.to_csv())
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.covariates, ds.covariates)

    def test_csv_roundtrip_categorical(self):
        ds = Dataset.from_codes([[0, 2], [1, 1]], (2, 3))
        back = Dataset.from_csv(ds.to_csv())
        assert back.kind == "categorical-onehot"
        assert back.level_sizes == (2, 3)
        assert np.array_equal(back.values, ds.values)

    def test_empty_csv(self):
        with pytest.raises(DataError):
            Dataset.from_csv("")

    def test_csv_covariates_are_c_digit_columns(self):
        back = Dataset.from_csv("x1,cost\n1.0,2.0\n3.0,4.0\n")
        assert back.d == 2 and back.covariates is None
        back = Dataset.from_csv("c2,cost,c10\n1.0,2.0,3.0\n")
        assert np.array_equal(back.values, [[2.0]])
        assert np.array_equal(back.covariates, [[1.0, 3.0]])

    @pytest.mark.parametrize("text", [
        "x1,x2\n1.0,2.0\n3.0\n",
        "x1\n1.0,2.0\n",
        "x1,c1\n1.0,abc\n",
        "#levels=2,x\nv1,v2\n0,1\n",
    ], ids=["short-row", "long-row", "non-numeric-cell", "non-numeric-levels"])
    def test_csv_malformed_raises_data_error(self, text):
        with pytest.raises(DataError):
            Dataset.from_csv(text)


class TestSplit:
    def test_exact_division(self):
        split = split_data(_simple(9), (1 / 3, 1 / 3, 1 / 3), Seed(0))
        assert (split.x_in.n, split.x_out.n, split.x_val.n) == (3, 3, 3)

    def test_remainder_to_x_in(self):
        split = split_data(_simple(10), (1 / 3, 1 / 3, 1 / 3), Seed(0))
        assert (split.x_in.n, split.x_out.n, split.x_val.n) == (4, 3, 3)

    def test_determinism(self):
        a = split_data(_simple(20), (0.5, 0.25, 0.25), Seed(5))
        b = split_data(_simple(20), (0.5, 0.25, 0.25), Seed(5))
        assert np.array_equal(a.x_out.values, b.x_out.values)

    def test_too_small(self):
        with pytest.raises(DataError) as err:
            split_data(_simple(2), (1 / 3, 1 / 3, 1 / 3), Seed(0))
        assert "cannot form three nonempty parts" in str(err.value)

    def test_bad_fractions(self):
        with pytest.raises(ParameterError):
            split_data(_simple(9), (0.5, 0.5, 0.5), Seed(0))
        with pytest.raises(ParameterError):
            split_data(_simple(9), (1.0, -0.5, 0.5), Seed(0))

    @given(st.integers(4, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, root):
        data = _simple(n, d=1)
        split = split_data(data, (0.4, 0.3, 0.3), Seed(root))
        merged = np.concatenate([split.x_in.values[:, 0], split.x_out.values[:, 0],
                                 split.x_val.values[:, 0]])
        assert sorted(merged.tolist()) == data.values[:, 0].tolist()
        assert split.x_in.n >= 1 and split.x_out.n >= 1 and split.x_val.n >= 1

    @given(st.integers(4, 100))
    @settings(max_examples=30, deadline=None)
    def test_sizes_invariant_to_row_order(self, n):
        data = _simple(n)
        shuffled = Dataset(data.values[::-1].copy())
        a = split_data(data, (0.5, 0.25, 0.25), Seed(1))
        b = split_data(shuffled, (0.5, 0.25, 0.25), Seed(1))
        assert (a.x_in.n, a.x_out.n, a.x_val.n) == (b.x_in.n, b.x_out.n, b.x_val.n)

    def test_mismatched_parts_rejected(self):
        with pytest.raises(DimensionError):
            DataSplit(_simple(3, 2), _simple(3, 3), _simple(3, 2))


class TestPassFail:
    def test_interior_values_pass(self):
        assert pass_fail(0.42, 0.1)
        assert pass_fail(0.45, 0.1)

    def test_tail_fails(self):
        assert not pass_fail(0.04, 0.1)
        assert not pass_fail(0.97, 0.1)

    def test_center_passes(self):
        assert pass_fail(0.5, 0.1)
        assert pass_fail(0.5, 0.9)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            pass_fail(1.5, 0.1)
        with pytest.raises(ParameterError):
            pass_fail(0.5, 0.0)


class TestRecords:
    def test_check_outcome_consistency(self):
        reps = np.array([1.0, 2.0, 3.0, 4.0])
        out = CheckOutcome(0.5, True, reps, 2.0, "m")
        recomputed = float((out.diagnostic_replicates > out.diagnostic_observed).mean())
        assert recomputed == out.p_value

    def test_report_json_schema(self):
        check = CheckOutcome(0.5, True, np.array([1.0, 3.0]), 2.0, "m1")
        pair = PpnOutcome(0.2, True, np.array([1.0, 2.0]), np.array([1.5, 2.5]),
                          "m1", "m2")
        report = StudyReport(("m1", "m2"), 0.1, 1.0, (check,), (pair,),
                             ({"a": "m1", "b": "m2", "class": "equivalent"},))
        payload = json.loads(report.to_json())
        assert payload["models"] == ["m1", "m2"]
        assert payload["diagonal"] == [{"model": "m1", "p": 0.5, "pass": True}]
        assert payload["pairs"] == [{"diag_owner": "m1", "data_source": "m2",
                                     "sym_kl": 0.2, "fools": True}]
        assert payload["verdicts"] == [{"a": "m1", "b": "m2", "class": "equivalent"}]
