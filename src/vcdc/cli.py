"""Command-line frontend: train, bench, decode, inspect-code.

Every subcommand reads defaults from an optional flat key=value config file
(``--config``); command-line flags override file values.  Subcommands that
write an output directory capture the fully resolved configuration there,
so a run is reproducible from its output alone.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench, codes
from .bp import BpConfig
from .codebook import load_alist, syndrome
from .denoiser import load_checkpoint, save_checkpoint
from .train import TrainConfig, TrainingDiverged, train, write_loss_curve


def _read_config(path):
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _capture_config(out_dir, name, values):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.config")
    with open(path, "w", encoding="ascii") as fh:
        for key in sorted(values):
            fh.write(f"{key}={values[key]}\n")
    return path


def _load_code(path):
    path = str(path)
    if not os.path.exists(path) and os.path.sep not in path:
        try:
            return codes.load(path.removesuffix(".alist"))
        except FileNotFoundError:
            pass
    return load_alist(path)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _resolve(args, defaults):
    """defaults < config file (``--config``) < explicit flags."""
    resolved = dict(defaults)
    for key, raw in (_read_config(args.config) if args.config else {}).items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        kind = type(defaults[key])
        if kind is bool and raw.lower() not in _BOOLS:
            raise ValueError(f"config key {key!r}: expected 1/0/true/false/yes/no, got {raw!r}")
        resolved[key] = _BOOLS[raw.lower()] if kind is bool else kind(raw)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


TRAIN_DEFAULTS = {
    "code": "", "out": "train_out", "seed": 0, "iterations": 20000, "batch_size": 256,
    "learning_rate": 0.001, "csnr_low": 4.0, "csnr_high": 6.0, "all_zero": False,
}

BENCH_DEFAULTS = {
    "code": "", "out": "bench_out", "seed": 0, "decoders": "bp", "csnr": "4,5,6",
    "checkpoint": "", "timesteps": "20", "step_db": 0.5, "bp_iters": 5,
    "bp_variant": "sum-product", "stop_errors": 100, "max_frames": 0, "batch_frames": 512,
}

DECODE_DEFAULTS = {
    "code": "", "llr": "", "decoder": "bp", "checkpoint": "", "csnr": 4.0,
    "timesteps": 20, "step_db": 0.5, "bp_iters": 5, "bp_variant": "sum-product",
}


def cmd_train(args):
    cfg = _resolve(args, TRAIN_DEFAULTS)
    if not cfg["code"]:
        raise ValueError("train requires --code")
    h = _load_code(cfg["code"])
    train_cfg = TrainConfig(
        learning_rate=cfg["learning_rate"], batch_size=cfg["batch_size"],
        iterations=cfg["iterations"], csnr_low_db=cfg["csnr_low"],
        csnr_high_db=cfg["csnr_high"], seed=cfg["seed"],
        all_zero_codewords=cfg["all_zero"])
    with np.errstate(over="ignore", invalid="ignore"):  # the divergence guard reports these
        result = train(h, train_cfg)
    # only a run that trained leaves an output directory
    _capture_config(cfg["out"], "train", cfg)
    ckpt_path = os.path.join(cfg["out"], "weights.vcdc")
    with open(ckpt_path, "wb") as fh:
        fh.write(save_checkpoint(result.weights))
    write_loss_curve(os.path.join(cfg["out"], "loss.csv"), result)
    print(f"trained {h.num_checks} weights on ({h.n},{h.k}); "
          f"final smoothed loss {result.final_smoothed():.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _decoder(h, cfg, choice, timesteps):
    """The ``bench`` decoder named ``choice``, configured from the resolved
    ``cfg``; ``timesteps`` sets the reverse-process length of ``vcdc``."""
    if choice == "bp":
        return bench.BpDecoder(h, BpConfig(max_iters=cfg["bp_iters"], variant=cfg["bp_variant"]))
    if choice == "vcdc":
        if not cfg["checkpoint"]:
            raise ValueError("decoder 'vcdc' requires --checkpoint")
        with open(cfg["checkpoint"], "rb") as fh:
            weights = load_checkpoint(fh.read())
        return bench.VcdcDecoder(h, weights, timesteps=timesteps, step_db=cfg["step_db"])
    if choice == "identity":
        return bench.IdentityDecoder(h)
    raise ValueError(f"unknown decoder {choice!r}")


def cmd_bench(args):
    cfg = _resolve(args, BENCH_DEFAULTS)
    if not cfg["code"]:
        raise ValueError("bench requires --code")
    h = _load_code(cfg["code"])
    code_id = os.path.splitext(os.path.basename(cfg["code"]))[0]
    decoder_ids = [d.strip() for d in cfg["decoders"].split(",") if d.strip()]
    csnrs = [float(s) for s in str(cfg["csnr"]).split(",") if s.strip()]
    timesteps = [int(t) for t in str(cfg["timesteps"]).split(",") if t.strip()]
    # an empty list would write a results.csv that measured nothing
    if not decoder_ids or not csnrs or ("vcdc" in decoder_ids and not timesteps):
        raise ValueError("bench needs at least one decoder, CSNR and (for vcdc) timestep count")
    _capture_config(cfg["out"], "bench", cfg)

    decoders = [_decoder(h, cfg, choice, t) for choice in decoder_ids
                for t in (timesteps if choice == "vcdc" else [None])]

    runs = []
    max_frames = cfg["max_frames"] if cfg["max_frames"] > 0 else None
    for decoder in decoders:
        for csnr in csnrs:
            run = bench.run_ber(h, decoder, csnr, stop_errors=cfg["stop_errors"],
                                max_frames=max_frames, seed=cfg["seed"], code_id=code_id,
                                batch_frames=cfg["batch_frames"])
            runs.append(run)
            print(f"{code_id} {decoder.name} {csnr:g} dB: ber={run.ber:.4e} "
                  f"-ln={bench.neg_ln_ber(run):.3f} frames={run.frames_simulated}"
                  f"{' censored' if run.censored else ''}")
    paths = bench.emit_results(runs, cfg["out"])
    print(f"wrote {', '.join(paths)}")
    return 0


def cmd_decode(args):
    cfg = _resolve(args, DECODE_DEFAULTS)
    if not cfg["code"] or not cfg["llr"]:
        raise ValueError("decode requires --code and --llr")
    h = _load_code(cfg["code"])
    with open(cfg["llr"], "r", encoding="ascii") as fh:
        values = np.array([float(tok) for tok in fh.read().split()])
    if values.size != h.n:
        raise ValueError(f"LLR file has {values.size} values, code needs {h.n}")

    decoder = _decoder(h, cfg, cfg["decoder"], cfg["timesteps"])
    bits, steps = (a[0] for a in decoder.decode_batch(values[None], cfg["csnr"]))
    _, errors = syndrome(h, bits)
    print("".join(str(b) for b in bits))
    print(f"syndrome: {'zero' if errors == 0 else 'nonzero'} "
          f"({errors} parity errors, {steps} steps)")
    return 0 if errors == 0 else 1


def cmd_inspect_code(args):
    h = _load_code(args.code)
    chk_degs = sorted({len(a) for a in h.chk_adjacency})
    var_degs = sorted({len(a) for a in h.var_adjacency})
    print(f"n={h.n} k={h.k} rate={h.rate:.4f} checks={h.num_checks} edges={h.num_edges}")
    print(f"check degrees: {chk_degs}")
    print(f"variable degrees: {var_degs}")
    return 0


def _add_flags(parser, defaults):
    """--config plus one --key-with-dashes flag per ``defaults`` key, parsed
    to the default's type; a boolean key is a switch that sets True."""
    parser.add_argument("--config")
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            parser.add_argument(flag, action="store_const", const=True)
        else:
            parser.add_argument(flag, type=type(value))


def build_parser():
    parser = argparse.ArgumentParser(prog="vcdc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, defaults, help_text in (
            ("train", cmd_train, TRAIN_DEFAULTS,
             "train block weights, write checkpoint + loss CSV"),
            ("bench", cmd_bench, BENCH_DEFAULTS,
             "Monte-Carlo BER runs, results CSV + plot data"),
            ("decode", cmd_decode, DECODE_DEFAULTS, "decode one LLR word from a file")):
        p = sub.add_parser(name, help=help_text)
        _add_flags(p, defaults)
        p.set_defaults(func=func)

    p_ins = sub.add_parser("inspect-code", help="print code parameters and degree profile")
    p_ins.add_argument("--code", required=True)
    p_ins.set_defaults(func=cmd_inspect_code)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
