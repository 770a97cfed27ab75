"""Command-line front end.

Subcommands: `generate` writes a synthetic dataset CSV; `check` runs one
heldout predictive check; `ppn` runs one pairwise null; `study` runs the
full grid and emits report.json, per-cell CSVs, and grid.svg.  Exit codes:
0 success, 1 usage error, 2 numerical or model error.  The PPN_SEED
environment variable overrides any configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import datagen
from .checks import StudyConfig, heldout_predictive_check, ppn_check, ppn_study
from .core import Dataset, split_data
from .diagnostics import DiagnosticSpec
from .errors import ParameterError, PpnError
from .models import make_model
from .report import emit_report
from .rng import Seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


GENERATORS = {
    "gmm": lambda n, seed: datagen.gen_gmm_data(n, seed),
    "regression": lambda n, seed: datagen.gen_regression_data(n=n, seed=seed),
    "linear-factor": datagen.gen_linear_factor_data,
    "nonlinear-factor": datagen.gen_nonlinear_factor_data,
    "multmix": lambda n, seed: datagen.gen_multmix_data(n, seed=seed),
}


def _build_parser():
    parser = _Parser(prog="ppn", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("preset", choices=sorted(GENERATORS))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    check = sub.add_parser("check", help="run one heldout predictive check")
    check.add_argument("--data", required=True)
    check.add_argument("--model", required=True,
                       help="model descriptor, e.g. gmm:3, ppca:2, regression-A")
    check.add_argument("--config", required=True)
    check.add_argument("--out", required=True)

    ppn = sub.add_parser("ppn", help="run one pairwise null")
    ppn.add_argument("--data", required=True)
    ppn.add_argument("--model-a", required=True)
    ppn.add_argument("--model-b", required=True)
    ppn.add_argument("--config", required=True)
    ppn.add_argument("--out", required=True)

    study = sub.add_parser("study", help="run a full study grid")
    study.add_argument("--config", required=True)
    study.add_argument("--out-dir", required=True)
    return parser


def _as(kind, value, what):
    """value converted by kind (int or float), or a ParameterError naming what."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{what} must be {noun}, not {value!r}") from None


def _model_from(entry, chain):
    """A model and its DiagnosticSpec from one config entry.

    An entry is a descriptor such as "gmm:3" or "regression-A", or a dict
    with family, K, an optional reduction, and the family's own settings.
    The top-level chain block gives every model its default settings.
    """
    if isinstance(entry, str):
        family, _, K = entry.partition(":")
        entry = {"family": family, "K": K} if K else {"family": family}
    if not isinstance(entry, dict) or "family" not in entry:
        raise ParameterError(f"model entry {entry!r} names no family")
    settings = dict(chain)
    settings.update({k: v for k, v in entry.items()
                     if k not in ("family", "K", "reduction")})
    K = entry.get("K")
    model = make_model(entry["family"], None if K is None else _as(int, K, "K"),
                       **settings)
    return model, DiagnosticSpec(model, entry.get("reduction"))


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ParameterError(f"config {path} must hold a JSON object")
    return config


def _seed_from(config):
    env = os.environ.get("PPN_SEED")
    if env is not None:
        return Seed(_as(int, env, "PPN_SEED"))
    return Seed(_as(int, config.get("seed", 0), "seed"))


def _split_from(config, data, seed):
    fractions = config.get("fractions")
    if fractions is None:
        fractions = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    return split_data(data, fractions, seed)


def _load_data(config, path_or_none, seed):
    if path_or_none is not None:
        with open(path_or_none) as fh:
            return Dataset.from_csv(fh.read())
    data_cfg = config.get("data")
    if not isinstance(data_cfg, dict) or not ("path" in data_cfg or "preset" in data_cfg):
        raise ParameterError("config data must be an object with a preset or a path")
    if "path" in data_cfg:
        with open(data_cfg["path"]) as fh:
            return Dataset.from_csv(fh.read())
    preset = data_cfg["preset"]
    if preset not in GENERATORS:
        raise ParameterError(f"unknown data preset {preset!r}")
    return GENERATORS[preset](_as(int, data_cfg.get("n", 500), "n"), seed)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(args) -> int:
    if args.command == "generate":
        data = GENERATORS[args.preset](args.n, Seed(args.seed))
        with open(args.out, "w") as fh:
            fh.write(data.to_csv())
        return 0
    config = _load_config(args.config)
    seed = _seed_from(config)
    study_cfg = StudyConfig(R=_as(int, config.get("R", 200), "R"),
                            alpha=_as(float, config.get("alpha", 0.1), "alpha"),
                            tau=_as(float, config.get("tau", 1.0), "tau"),
                            mode=config.get("mode", "full"))
    chain = config.get("chain", {})
    if not isinstance(chain, dict):
        raise ParameterError("config chain must be an object of chain settings")
    if args.command == "check":
        data = _load_data(config, args.data, seed)
        split = _split_from(config, data, seed)
        model, spec = _model_from(args.model, chain)
        outcome = heldout_predictive_check(split, model, spec, study_cfg.R,
                                           study_cfg.alpha, seed)
        _write_json(args.out, outcome.to_dict())
        return 0
    if args.command == "ppn":
        data = _load_data(config, args.data, seed)
        split = _split_from(config, data, seed)
        model_a, spec_a = _model_from(args.model_a, chain)
        model_b, _ = _model_from(args.model_b, chain)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = ppn_check(split, model_a, model_b, spec_a, study_cfg.R,
                                study_cfg.tau, seed)
        _write_json(args.out, outcome.to_dict())
        return 0
    if args.command == "study":
        data = _load_data(config, None, seed)
        split = _split_from(config, data, seed)
        entries = [_model_from(entry, chain) for entry in config.get("models", [])]
        report = ppn_study(split, [m for m, _ in entries], [s for _, s in entries],
                           study_cfg, seed)
        emit_report(report, args.out_dir)
        return 0
    raise ParameterError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except PpnError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
