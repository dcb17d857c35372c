"""Command-line frontend: train, bench, decode, inspect-code.

Every subcommand reads defaults from an optional flat key=value config file
(``--config``); command-line flags override file values.  Subcommands that
write an output directory capture the fully resolved configuration there,
so a run is reproducible from its output alone, and reject before any work
a value that file could not carry back.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bench, codes
from .bp import BpConfig
from .channel import noise_scale
from .codebook import syndrome
from .denoiser import load_checkpoint, save_checkpoint
from .train import TrainConfig, TrainingDiverged, train, write_loss_curve


def _read_config(path):
    """The ``key=value`` lines of the config file ``path`` as a dict;
    ValueError naming the line of one that is malformed or repeats a key."""
    values, lines = {}, {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:  # one value would silently win over the other
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
            values[key], lines[key] = value, lineno
    return values


def _config_text(values):
    """The captured ``key=value`` lines, keys sorted; ValueError naming the first
    key whose value ``_read_config`` would not read back: with '#', a line
    break, spaces at either end or a non-ASCII character."""
    for key, value in values.items():
        text = str(value)
        if not text.isascii() or text != text.strip() or any(c in text for c in "#\n\r"):
            raise ValueError(f"config key {key!r}: {text!r} would not read back from the "
                             f"captured config ('#', a line break, outer spaces or non-ASCII)")
    return "".join(f"{key}={values[key]}\n" for key in sorted(values))


def _check_out(out_dir):
    """ValueError when ``out_dir`` is empty, or it or the nearest of its
    parents that exists is not a directory: the run could not write its
    output there."""
    if out_dir == "":
        raise ValueError("out (--out or config key 'out') must name a directory, got ''")
    path = out_dir
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise ValueError(f"--out {out_dir!r}: {path!r} exists and is not a directory")


def _capture_config(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.config"), "w", encoding="ascii") as fh:
        fh.write(text)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse(kind, text, where):
    """``text`` parsed by ``kind`` (str, int or float); ValueError naming
    ``where`` the text came from when it is no such number."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: expected {noun}, got {text!r}") from None


def _parse_list(cfg, key, kind):
    """The comma-separated entries of the resolved ``cfg[key]``, each parsed
    by ``kind``; empty entries are skipped, and a repeated value, which would
    run the same work twice, is rejected by name."""
    values = []
    for i, s in enumerate(str(cfg[key]).split(","), 1):
        where = f"{key} entry {i} (--{key} or config key {key!r})"
        if s.strip():
            value = _parse(kind, s.strip(), where)
            if value in values:
                raise ValueError(f"{where} repeats {value:g}" if kind is float
                                 else f"{where} repeats {value!r}")
            values.append(value)
    return values


def _resolve(args, defaults):
    """defaults < config file (``--config``) < explicit flags."""
    resolved = dict(defaults)
    for key, raw in (_read_config(args.config) if args.config else {}).items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        kind = type(defaults[key])
        if kind is bool and raw.lower() not in _BOOLS:
            raise ValueError(f"config key {key!r}: expected 1/0/true/false/yes/no, got {raw!r}")
        resolved[key] = (_BOOLS[raw.lower()] if kind is bool
                         else _parse(kind, raw, f"{args.config}: config key {key!r}"))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


# TrainConfig's fields are train's keys; TrainConfig and BpConfig own the defaults
TRAIN_DEFAULTS = {"code": "", "out": "train_out", **dataclasses.asdict(TrainConfig())}

_DECODER_DEFAULTS = {  # step_db is VcdcDecoder's default and the BP knobs BpConfig's
    "step_db": bench.STEP_DB, "bp_iters": BpConfig().max_iters, "bp_variant": BpConfig().variant}

DECODE_DEFAULTS = {"code": "", "llr": "", "decoder": "bp", "checkpoint": "", "csnr": 4.0,
                   "timesteps": 20, **_DECODER_DEFAULTS}  # T is the CLI's, for bench too

BENCH_DEFAULTS = {"code": "", "out": "bench_out", "seed": 0, "decoders": "bp", "csnr": "4,5,6",
                  "checkpoint": "", "timesteps": str(DECODE_DEFAULTS["timesteps"]),
                  **_DECODER_DEFAULTS, "stop_errors": 100, "max_frames": 0, "batch_frames": 512}


def _setup(args, command, defaults):
    """(resolved config, its captured text, code) of ``train`` or ``bench``.
    Before any work it rejects, first to last: a bad config file, a value the
    captured config could not read back, a negative seed, no --code, an --out
    it could not write, and a code it cannot load."""
    cfg = _resolve(args, defaults)
    config = _config_text(cfg)
    if cfg["seed"] < 0:  # numpy's own error would name neither flag nor key
        raise ValueError(f"seed (--seed or config key 'seed') must be >= 0, got {cfg['seed']}")
    if not cfg["code"]:
        raise ValueError(f"{command} requires --code")
    _check_out(cfg["out"])
    return cfg, config, codes.load(cfg["code"])


def cmd_train(args):
    cfg, config, h = _setup(args, "train", TRAIN_DEFAULTS)
    train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})
    result = train(h, train_cfg)
    # only a run that trained leaves an output directory
    _capture_config(cfg["out"], "train", config)
    ckpt_path = os.path.join(cfg["out"], "weights.vcdc")
    with open(ckpt_path, "wb") as fh:
        fh.write(save_checkpoint(result.weights))
    write_loss_curve(os.path.join(cfg["out"], "loss.csv"), result)
    print(f"trained {h.num_checks} weights on ({h.n},{h.k}); "
          f"final smoothed loss {result.final_smoothed():.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _weights(cfg, choices):
    """The weights of the resolved ``cfg``'s checkpoint, read once, when the
    decoder names ``choices`` hold ``vcdc``; else None."""
    if "vcdc" not in choices:
        return None
    if not cfg["checkpoint"]:
        raise ValueError("decoder 'vcdc' requires --checkpoint")
    with open(cfg["checkpoint"], "rb") as fh:
        return load_checkpoint(fh.read())


def _decoder(h, cfg, choice, timesteps, weights):
    """The ``bench`` decoder named ``choice``, configured from the resolved
    ``cfg``; ``timesteps`` sets the reverse-process length of ``vcdc`` and
    ``weights``, from ``_weights``, its block weights."""
    if choice == "bp":
        return bench.BpDecoder(h, BpConfig(max_iters=cfg["bp_iters"], variant=cfg["bp_variant"]))
    if choice == "vcdc":
        return bench.VcdcDecoder(h, weights, timesteps=timesteps, step_db=cfg["step_db"])
    if choice == "identity":
        return bench.IdentityDecoder(h)
    raise ValueError(f"unknown decoder {choice!r}")


def cmd_bench(args):
    cfg, config, h = _setup(args, "bench", BENCH_DEFAULTS)
    code_id = os.path.splitext(os.path.basename(cfg["code"]))[0]
    decoder_ids = _parse_list(cfg, "decoders", str)
    csnrs, timesteps = _parse_list(cfg, "csnr", float), _parse_list(cfg, "timesteps", int)
    # an empty list would write a results.csv that measured nothing
    if not decoder_ids or not csnrs or ("vcdc" in decoder_ids and not timesteps):
        raise ValueError("bench needs at least one decoder, CSNR and (for vcdc) timestep count")
    if cfg["max_frames"] < 0:
        raise ValueError(f"max_frames must be >= 0 (0: the default budget), "
                         f"got {cfg['max_frames']}")
    # (decoder, T) in run order; only vcdc takes timestep counts
    pairs = [(choice, t) for choice in decoder_ids
             for t in (timesteps if choice == "vcdc" else [None])]
    weights = _weights(cfg, decoder_ids)
    decoders = [_decoder(h, cfg, choice, t, weights) for choice, t in pairs]
    # every CSNR a run will use fails before any run: the channel's here, and
    # each decoder's own, such as a vcdc schedule's levels, on zero frames
    noise_scale(np.array(csnrs), h.k, h.n)
    for decoder in decoders:
        for csnr in csnrs:
            decoder.decode_batch(np.empty((0, h.n)), csnr)

    runs = []
    max_frames = cfg["max_frames"] or max(1, 10**8 // h.n)  # 0: the 1e8-bit budget
    for decoder in decoders:
        for csnr in csnrs:
            run = bench.run_ber(h, decoder, csnr, stop_errors=cfg["stop_errors"],
                                max_frames=max_frames, seed=cfg["seed"], code_id=code_id,
                                batch_frames=cfg["batch_frames"])
            runs.append(run)
            print(f"{code_id} {decoder.name} {csnr:g} dB: ber={run.ber:.4e} "
                  f"-ln={bench.neg_ln_ber(run):.3f} frames={run.frames_simulated}"
                  f"{' censored' if run.censored else ''}")
    # only a run that measured leaves an output directory
    _capture_config(cfg["out"], "bench", config)
    paths = bench.emit_results(runs, cfg["out"])
    print(f"wrote {', '.join(paths)}")
    return 0


def cmd_decode(args):
    cfg = _resolve(args, DECODE_DEFAULTS)
    if not cfg["code"] or not cfg["llr"]:
        raise ValueError("decode requires --code and --llr")
    h = codes.load(cfg["code"])
    with open(cfg["llr"], "r", encoding="ascii") as fh:
        values = np.array([_parse(float, tok, f"{cfg['llr']}: token {i}")
                           for i, tok in enumerate(fh.read().split(), 1)])
    # the decoder's frame boundary checks the word's length and values
    decoder = _decoder(h, cfg, cfg["decoder"], cfg["timesteps"],
                       _weights(cfg, [cfg["decoder"]]))
    bits, steps = (a[0] for a in decoder.decode_batch(values[None], cfg["csnr"]))
    _, errors = syndrome(h, bits)
    print("".join(str(b) for b in bits))
    print(f"syndrome: {'zero' if errors == 0 else 'nonzero'} "
          f"({errors} parity errors, {steps} steps)")
    return 0 if errors == 0 else 1


def cmd_inspect_code(args):
    h = codes.load(args.code)
    chk_degs = sorted(set(h.rows.sum(axis=1).tolist()))
    var_degs = sorted(set(h.rows.sum(axis=0).tolist()))
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
        # overflow and inf - inf are reported by the checks that meet them:
        # training's divergence guard and the decoder's belief tests
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
