"""Datasets, deterministic three-way splitting, posterior draws, and shared
result records.

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

CONTINUOUS = "continuous"
CATEGORICAL = "categorical-onehot"


@dataclass(frozen=True)
class Dataset:
    """An n x d matrix of observations, optionally with covariates.

    Categorical data is stored one-hot: each variable j occupies a block of
    level_sizes[j] columns containing exactly one 1 per row.
    """

    values: np.ndarray
    covariates: np.ndarray = None
    kind: str = CONTINUOUS
    level_sizes: tuple = None

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionError("values must be an n x d matrix with n, d >= 1")
        if not np.all(np.isfinite(values)):
            raise DataError("values contain non-finite entries")
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ParameterError(f"unknown dataset kind {self.kind!r}")
        if self.covariates is not None:
            if self.kind != CONTINUOUS:
                raise DataError("covariates are only supported for continuous data")
            cov = np.atleast_2d(np.asarray(self.covariates, dtype=float))
            object.__setattr__(self, "covariates", cov)
            if cov.shape[0] != values.shape[0]:
                raise DimensionError("covariates row count must match values")
            if not np.all(np.isfinite(cov)):
                raise DataError("covariates contain non-finite entries")
        if self.kind == CATEGORICAL:
            if self.level_sizes is None:
                raise ParameterError("categorical data requires level_sizes")
            sizes = tuple(integer(s, "a level size", 1) for s in self.level_sizes)
            object.__setattr__(self, "level_sizes", sizes)
            if sum(sizes) != values.shape[1]:
                raise DimensionError("level_sizes do not add up to the column count")
            start = 0
            for size in sizes:
                block = values[:, start:start + size]
                if not (np.all((block == 0) | (block == 1)) and np.all(block.sum(axis=1) == 1)):
                    raise DataError("each categorical variable block must be one-hot")
                start += size

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]

    def take(self, idx) -> "Dataset":
        """Row-subset sharing column structure."""
        cov = None if self.covariates is None else self.covariates[idx]
        return Dataset(self.values[idx], cov, self.kind, self.level_sizes)

    def codes(self) -> np.ndarray:
        """Integer level codes (n x #variables) for categorical data."""
        if self.kind != CATEGORICAL:
            raise DataError("codes() is only defined for categorical data")
        out = np.empty((self.n, len(self.level_sizes)), dtype=int)
        start = 0
        for j, size in enumerate(self.level_sizes):
            out[:, j] = np.argmax(self.values[:, start:start + size], axis=1)
            start += size
        return out

    @staticmethod
    def from_codes(codes, level_sizes) -> "Dataset":
        """Build a one-hot categorical dataset from integer level codes.

        A code that is not a whole number is refused, never truncated."""
        level_sizes = tuple(integer(s, "a level size", 1) for s in level_sizes)
        codes = np.atleast_2d(np.asarray(codes))
        if codes.dtype.kind not in "iu":
            whole = codes.astype(float)
            if not np.all(np.isfinite(whole) & (whole == np.round(whole))):
                raise DataError("level codes must be whole numbers")
            # clipped first, so that a code beyond the int range stays out of range
            codes = np.clip(whole, -1, max(level_sizes, default=0)).astype(int)
        if codes.shape[1] != len(level_sizes):
            raise DimensionError("one code column per categorical variable required")
        n = codes.shape[0]
        values = np.zeros((n, sum(level_sizes)))
        start = 0
        for j, size in enumerate(level_sizes):
            if np.any(codes[:, j] < 0) or np.any(codes[:, j] >= size):
                raise DataError(f"level codes for variable {j} out of range")
            values[np.arange(n), start + codes[:, j]] = 1.0
            start += size
        return Dataset(values, kind=CATEGORICAL, level_sizes=level_sizes)

    def to_csv(self) -> str:
        """Serialize to CSV text; categorical variables as integer codes."""
        buf = io.StringIO()
        if self.kind == CATEGORICAL:
            cols = [f"v{j + 1}" for j in range(len(self.level_sizes))]
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
            return Dataset.from_codes(body, sizes)
        is_cov = np.array([re.fullmatch(r"c\d+", c) is not None for c in header])
        return Dataset(body[:, ~is_cov], body[:, is_cov] if is_cov.any() else None)


class StateBatch(tuple):
    """Retained states scored together.

    A scoring kernel may keep the arrays it stacks from the states in
    ``stacked``, so they are built once and freed with the batch.
    """

    stacked = None


@dataclass(frozen=True)
class PosteriorDraws:
    """B retained parameter states plus their (log) likelihood bookkeeping.

    ``states`` is kept as one StateBatch, so the arrays a kernel stacks from
    them are built once per fit.
    """

    states: StateBatch
    model_id: str
    loglik: np.ndarray = None
    logpost: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "states", StateBatch(self.states))
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
        kinds = {self.x_in.kind, self.x_out.kind, self.x_val.kind}
        dims = {self.x_in.d, self.x_out.d, self.x_val.d}
        if len(kinds) != 1 or len(dims) != 1:
            raise DimensionError("all three parts must share column structure")


def split_data(data: Dataset, fractions, seed) -> DataSplit:
    """Randomly partition rows into (x_in, x_out, x_val).

    Sizes are floor-allocated from the fractions with any remainder rows
    assigned to x_in.  The permutation is a pure function of the seed.
    """
    try:
        fractions = np.array([finite(f, "a fraction") for f in fractions])
    except TypeError:
        raise ParameterError(f"fractions must be three positive reals, not {fractions!r}") from None
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
    perm = seed.stream("split").generator.permutation(n)
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
