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
from .errors import DataError, ParameterError, PpnError
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


def _int_from(text, what):
    """The integer written in text (PPN_SEED, the K of a descriptor), or a
    ParameterError naming what.  JSON values are never converted: the
    constructors that take them refuse a value of the wrong type."""
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, not {text!r}") from None


def _model_from(entry, chain):
    """The model of one config entry.

    An entry is a descriptor such as "gmm:3" or "regression-A", or a dict
    with family, K, and the family's own settings, reduction among them.
    The top-level chain block gives every model its default settings.
    """
    if isinstance(entry, str):
        family, _, K = entry.partition(":")
        entry = {"family": family, "K": _int_from(K, "K")} if K else {"family": family}
    if not isinstance(entry, dict) or "family" not in entry:
        raise ParameterError(f"model entry {entry!r} names no family")
    settings = dict(chain)
    settings.update({k: v for k, v in entry.items() if k not in ("family", "K")})
    return make_model(entry["family"], entry.get("K"), **settings)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ParameterError(f"config {path} must hold a JSON object")
    return config


def _load_data(config, path, seed):
    if path is None:
        data_cfg = config.get("data")
        if not isinstance(data_cfg, dict) or not ("path" in data_cfg or "preset" in data_cfg):
            raise ParameterError("config data must be an object with a preset or a path")
        if "path" not in data_cfg:
            preset = data_cfg["preset"]
            if not (isinstance(preset, str) and preset in GENERATORS):
                raise ParameterError(f"unknown data preset {preset!r}")
            return GENERATORS[preset](data_cfg.get("n", 500), seed)
        path = data_cfg["path"]
        # open() takes an integer as a file descriptor: 0 would read stdin
        if not isinstance(path, str):
            raise ParameterError(f"config data path must be a string, not {path!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"data {path} is not UTF-8 text: {exc}") from None
    return Dataset.from_csv(text)


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
    env = os.environ.get("PPN_SEED")
    seed = Seed(config.get("seed", 0) if env is None else _int_from(env, "PPN_SEED"))
    study_cfg = StudyConfig(**{k: config[k] for k in ("R", "alpha", "tau", "mode")
                               if k in config})
    chain = config.get("chain", {})
    if not isinstance(chain, dict):
        raise ParameterError("config chain must be an object of chain settings")
    if "reduction" in chain:
        raise ParameterError("config chain takes no reduction: give it in a model entry")
    data = _load_data(config, getattr(args, "data", None), seed)
    fractions = config.get("fractions")
    split = split_data(data, (1 / 3, 1 / 3, 1 / 3) if fractions is None else fractions, seed)
    if args.command == "check":
        outcome = heldout_predictive_check(split, _model_from(args.model, chain),
                                           study_cfg.R, study_cfg.alpha, seed)
        _write_json(args.out, outcome.to_dict())
        return 0
    if args.command == "ppn":
        model_a, model_b = (_model_from(m, chain) for m in (args.model_a, args.model_b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = ppn_check(split, model_a, model_b, study_cfg.R, study_cfg.tau, seed)
        _write_json(args.out, outcome.to_dict())
        return 0
    # the parser admits no other command: this is `study`
    models = config.get("models", [])
    if not isinstance(models, list):
        raise ParameterError(f"config models must be a list, not {models!r}")
    report = ppn_study(split, [_model_from(entry, chain) for entry in models],
                       study_cfg, seed)
    emit_report(report, args.out_dir)
    return 0


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
