"""Datasets, deterministic three-way splitting, posterior draws, and shared
result records.

A Dataset holds continuous values, or the level codes of categorical
variables; only Dataset knows how the codes are stored and checked.

The central object is the three-way split {x_in, x_out, x_val}: models are
fitted on x_in, located against x_out, and their diagnostics are anchored on
x_val.  Every fit comes back as PosteriorDraws.  Result records (check
outcomes, pairwise comparison outcomes, study reports) are immutable and
JSON-serializable.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, ParameterError, StateError, finite, integer
from .rng import need_seed

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

# Cells of one block of an array worked a block at a time (replicates
# scored together, states of a log-likelihood, KDE grid rows): 2 MB of float64.
BLOCK_CELLS = 2**18


def _checked_levels(values, level_sizes):
    """The level sizes of an n x d matrix of values, checked with the values:
    finite values without level sizes, in-range level codes with them."""
    if level_sizes is None:
        if not np.all(np.isfinite(values)):
            raise DataError("values contain non-finite entries")
        return None
    sizes = tuple(integer(s, "a level size", 1) for s in level_sizes)
    if len(sizes) != values.shape[1]:
        raise DimensionError("one level size per code column required")
    # one contiguous row per variable, whose min and max give its range; a
    # NaN or inf shows in them, and a code such as 1e300 is whole and out of
    # range, compared as a float, never cast
    columns = values.T.copy()
    low, high = columns.min(axis=1), columns.max(axis=1)
    if not np.all(np.isfinite(low) & np.isfinite(high)) \
            or (np.floor(columns) != columns).any():
        raise DataError("level codes must be whole numbers")
    outside = (low < 0) | (high >= sizes)
    if outside.any():
        raise DataError(f"level codes for variable {int(np.argmax(outside))} out of range")
    return sizes


def _checked_covariates(covariates, n, level_sizes):
    """A covariate matrix for n rows of continuous values, checked."""
    if level_sizes is not None:
        raise DataError("covariates are only supported for continuous data")
    cov = np.atleast_2d(np.asarray(covariates, dtype=float))
    if cov.shape[0] != n:
        raise DimensionError("covariates row count must match values")
    if not np.all(np.isfinite(cov)):
        raise DataError("covariates contain non-finite entries")
    return cov


@dataclass(frozen=True)
class Dataset:
    """An n x d matrix of observations, optionally with covariates.

    A dataset is categorical exactly when it has level_sizes.  Its d columns
    then hold the level codes of d variables: whole numbers in
    [0, level_sizes[j]), kept as floats like every other value.
    """

    values: np.ndarray
    covariates: np.ndarray = None
    level_sizes: tuple = None

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionError("values must be an n x d matrix with n, d >= 1")
        object.__setattr__(self, "level_sizes", _checked_levels(values, self.level_sizes))
        if self.covariates is not None:
            object.__setattr__(self, "covariates", _checked_covariates(
                self.covariates, values.shape[0], self.level_sizes))

    @property
    def kind(self):
        return CONTINUOUS if self.level_sizes is None else CATEGORICAL

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]

    def take(self, idx) -> "Dataset":
        """Row-subset sharing column structure."""
        cov = None if self.covariates is None else self.covariates[idx]
        return Dataset(self.values[idx], cov, self.level_sizes)

    def codes(self) -> np.ndarray:
        """Integer level codes (n x d) of categorical data."""
        if self.level_sizes is None:
            raise DataError("codes() is only defined for categorical data")
        return self.values.astype(int)

    def to_csv(self) -> str:
        """Serialize to CSV text; categorical variables as integer codes."""
        buf = io.StringIO()
        if self.level_sizes is not None:
            cols = [f"v{j + 1}" for j in range(self.d)]
            buf.write("#levels=" + ",".join(str(s) for s in self.level_sizes) + "\n")
            buf.write(",".join(cols) + "\n")
            for row in self.codes():
                buf.write(",".join(str(int(c)) for c in row) + "\n")
        else:
            cols = [f"x{j + 1}" for j in range(self.d)]
            if self.covariates is not None:
                cols += [f"c{j + 1}" for j in range(self.covariates.shape[1])]
            buf.write(",".join(cols) + "\n")
            mat = self.values if self.covariates is None else np.hstack([self.values, self.covariates])
            for row in mat:
                buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Dataset":
        """Parse the CSV form written by to_csv.

        Columns named c<digits> hold covariates; every other column holds
        values.  Every row needs one number per header column.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        level_sizes = None
        if lines and lines[0].startswith("#levels="):
            level_sizes = lines[0].split("=", 1)[1].split(",")
            lines = lines[1:]
        if not lines:
            raise DataError("empty CSV")
        header = [c.strip() for c in lines[0].split(",")]
        rows = [ln.split(",") for ln in lines[1:]]
        for i, row in enumerate(rows, 1):
            if len(row) != len(header):
                raise DataError(f"CSV row {i} has {len(row)} cells for "
                                f"{len(header)} header columns")
        try:
            sizes = None if level_sizes is None else [int(s) for s in level_sizes]
            body = np.array([[float(v) for v in row] for row in rows]).reshape(
                len(rows), len(header))
        except ValueError as exc:
            raise DataError(f"CSV entry is not a number: {exc}") from None
        if sizes is not None:
            return Dataset(body, level_sizes=sizes)
        is_cov = np.array([re.fullmatch(r"c\d+", c) is not None for c in header])
        return Dataset(body[:, ~is_cov], body[:, is_cov] if is_cov.any() else None)


class ReplicateBlock:
    """R replicate datasets drawn together: one R x n x d block of values,
    whose replicates share one covariate matrix (or none) and one set of
    level sizes.

    The block and the covariates are checked once, as a Dataset checks its
    parts.
    """

    def __init__(self, values, covariates=None, level_sizes=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or 0 in values.shape:
            raise DimensionError("a replicate block must be R x n x d with R, n, d >= 1")
        self.values = values
        self.level_sizes = _checked_levels(values.reshape(-1, values.shape[2]), level_sizes)
        self.covariates = None if covariates is None else _checked_covariates(
            covariates, values.shape[1], self.level_sizes)

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def d(self):
        return self.values.shape[2]

    def __len__(self):
        return len(self.values)

    def blocks(self):
        """(first index, block) over views of whole replicates, in order, at
        most BLOCK_CELLS values each (but at least one replicate)."""
        rows = max(1, BLOCK_CELLS // (self.n * self.d))
        for start in range(0, len(self), rows):
            # built without checking its parts again
            block = object.__new__(ReplicateBlock)
            block.values = self.values[start:start + rows]
            block.covariates, block.level_sizes = self.covariates, self.level_sizes
            yield start, block


@dataclass(frozen=True)
class PosteriorDraws:
    """B retained parameter states plus their (log) likelihood bookkeeping."""

    states: tuple
    model_id: str
    loglik: np.ndarray = None
    logpost: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 1:
            raise ParameterError("need at least one retained draw")

    @property
    def B(self):
        return len(self.states)

    def map_state(self):
        if self.logpost is None:
            raise StateError("no posterior density recorded for these draws")
        return self.states[int(np.argmax(self.logpost))]


@dataclass(frozen=True)
class DataSplit:
    """The {x_in, x_out, x_val} triple driving every check."""

    x_in: Dataset
    x_out: Dataset
    x_val: Dataset

    def __post_init__(self):
        # the level sizes also tell categorical parts from continuous ones;
        # a part without covariates has 0 covariate columns
        shapes = {(part.d, part.level_sizes,
                   0 if part.covariates is None else part.covariates.shape[1])
                  for part in (self.x_in, self.x_out, self.x_val)}
        if len(shapes) != 1:
            raise DimensionError("all three parts must share column structure")


def split_data(data: Dataset, fractions, seed) -> DataSplit:
    """Randomly partition rows into (x_in, x_out, x_val).

    Sizes are floor-allocated from the fractions with any remainder rows
    assigned to x_in.  The permutation is a pure function of the seed.
    """
    # a string is iterable too, but of characters
    if isinstance(fractions, str) or not np.iterable(fractions):
        raise ParameterError(f"fractions must be three positive reals, not {fractions!r}")
    fractions = np.array([finite(f, "a fraction") for f in fractions])
    if fractions.shape != (3,) or np.any(fractions <= 0):
        raise ParameterError("fractions must be three positive reals")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise ParameterError("fractions must sum to 1")
    n = data.n
    n_out = int(np.floor(n * fractions[1]))
    n_val = int(np.floor(n * fractions[2]))
    n_in = n - n_out - n_val
    if min(n_in, n_out, n_val) < 1:
        raise DataError("cannot form three nonempty parts")
    perm = need_seed(seed, "a split").stream("split").generator.permutation(n)
    idx_in = np.sort(perm[:n_in])
    idx_out = np.sort(perm[n_in:n_in + n_out])
    idx_val = np.sort(perm[n_in + n_out:])
    return DataSplit(data.take(idx_in), data.take(idx_out), data.take(idx_val))


def pass_fail(p: float, alpha: float) -> bool:
    """Two-sided pass rule: neither tail of the reference is too extreme."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    return min(p, 1.0 - p) >= alpha / 2.0


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one heldout (or classical) predictive check."""

    p_value: float
    passed: bool
    diagnostic_replicates: np.ndarray
    diagnostic_observed: float
    model_id: str = ""

    def to_dict(self):
        return {
            "model": self.model_id,
            "p": self.p_value,
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class PpnOutcome:
    """Result of one pairwise null comparison under one model's diagnostic."""

    sym_kl: float
    fools: bool
    samples_a: np.ndarray
    samples_b: np.ndarray
    diagnostic_owner: str
    data_source: str

    def to_dict(self):
        return {
            "diag_owner": self.diagnostic_owner,
            "data_source": self.data_source,
            "sym_kl": self.sym_kl,
            "fools": bool(self.fools),
        }


VERDICT_EQUIVALENT = "equivalent"
VERDICT_A_DOMINATES = "A-dominates"
VERDICT_B_DOMINATES = "B-dominates"
VERDICT_COMPLEMENTARY = "complementary"


@dataclass(frozen=True)
class StudyReport:
    """Grid of per-model checks (diagonal) and pairwise nulls (off-diagonal)."""

    models: tuple
    alpha: float
    tau: float
    diagonal: tuple = ()
    off_diagonal: tuple = ()
    verdicts: tuple = field(default=())

    def to_dict(self):
        return {
            "models": list(self.models),
            "alpha": self.alpha,
            "tau": self.tau,
            "diagonal": [c.to_dict() for c in self.diagonal],
            "pairs": [p.to_dict() for p in self.off_diagonal],
            "verdicts": [dict(v) for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
