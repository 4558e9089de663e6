"""Command-line front end.

Subcommands:
    enhance      denoise a wav file (or every wav in a directory)
    analyze      closed-form MACs report for a configuration
    table        cost comparison of optimization variants vs a base
    gen-weights  write a deterministic seeded weights file
    bench        wall-clock timing of the real forward pass
    calibrate    grid-search feature/hidden dims against the cost targets

Exit codes: 0 success, 1 internal error, 2 audio format, 3 weights
format, 4 configuration, 5 file I/O, 64 usage. A failure is one
``error: <category>: <message>`` line on stderr, its category and code from
the table ``_FAILURES``; ``_say`` writes it and every status line as one line.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import configio, macs, model, rnn, wavio, weights_io
from .dsp import OaConfig
from .errors import AudioFormatError, ConfigError, WeightsFormatError
from .model import build, preset_names, weight_arrays

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_AUDIO = 2
EXIT_WEIGHTS = 3
EXIT_CONFIG = 4
EXIT_IO = 5
EXIT_USAGE = 64

#: longest ``bench --seconds``: bench makes its noise input in memory, at a
#: peak of 12 bytes a sample (0.7 GB at 16 kHz at this limit)
BENCH_SECONDS = 3600.0


def _load_model(config, weights_path: str | None):
    """The model of ``config`` on a ``.bsrw`` file's weights, or on seeded ones for ``None``."""
    if weights_path is None:
        arrays = weights_io.gen_weights(config, seed=0)
    else:
        arrays, _meta = weights_io.load_weights(weights_path)
    return build(config, arrays)


def _enhance_one(net, src: Path, dst: Path, oa: OaConfig | None) -> None:
    samples, rate, fmt = wavio.read_wav(src)
    expected = net.config.stft.sample_rate
    if rate != expected:
        raise AudioFormatError(f"{src}: sample rate {rate}, model expects {expected}")
    out = model.enhance(net, samples, oa=oa)
    del samples  # a long file's input need not outlive its enhancement
    _write_replacing(dst, lambda path: wavio.write_wav(path, out, rate, fmt))


def _write_replacing(path, write) -> None:
    """Run ``write(name)`` so that a failed write never leaves ``path`` half written.

    A regular file, or a new one, is written to a temporary sibling that then
    replaces it (``os.replace``; through a link, the file the link names); if the
    write fails, the sibling is removed and ``path`` is as it was. Any other
    target, such as a pipe or ``/dev/stdout``, is written in place, streaming.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        write(path)
        return
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "No such directory", str(path))
    temporary = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        write(temporary)
        if os.path.exists(target):
            shutil.copymode(target, temporary)
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


def _refuse_clobber(targets, args) -> None:
    """Refuse (exit 5), before anything is loaded, an output target that is the
    same file as the command's ``--weights`` or config file (a preset is none)."""
    config = None if args.config in preset_names() else args.config
    for flag, source in (("weights", getattr(args, "weights", None)), ("config", config)):
        for target in targets:
            try:
                same = os.path.samefile(target, source or "")
            except (OSError, ValueError):  # missing, or no such input
                same = False
            if same:
                raise OSError(f"--output {target} is the --{flag} file; it is never overwritten")


def cmd_enhance(args) -> int:
    src, dst = Path(args.input), Path(args.output)
    folder = src.is_dir()
    # (input, output, status label) per file: the refusal checks exactly what is written
    jobs = ([(wav, dst / wav.name, wav.name) for wav in sorted(src.glob("*.wav"))] if folder
            else [(src, dst, dst)])
    _refuse_clobber([target for _, target, _ in jobs], args)
    net = _load_model(configio.load_config(args.config), args.weights)
    oa = None if args.oa is None else OaConfig(args.oa)
    if not jobs:
        raise AudioFormatError(f"no wav files in {src}")
    if folder:
        dst.mkdir(parents=True, exist_ok=True)
    for wav, target, label in jobs:
        _enhance_one(net, wav, target, oa)
        _say(f"{label}: ok")
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = configio.load_config(args.config)
    report = macs.analyze(config, args.duration)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif args.csv:
        print("component,macs")
        for name, count in report.components.items():
            print(f"{name},{count}")
        print(f"total,{report.total}")
    else:
        total = report.total
        print(f"{report.gps:.2f} G/s")
        print(f"total {total} MACs over {report.duration:g} s")
        for name, count in report.components.items():
            print(f"  {name:>14} {count:>15} ({100.0 * count / total:5.1f}%)")
    return EXIT_OK


def _variant_list(args):
    base, variants = macs.canonical_chain(extended=args.extended)
    if args.base is not None:
        base = configio.load_config(args.base)
    if args.variants is not None:
        vdir = Path(args.variants)
        if not vdir.is_dir():
            raise ConfigError(f"--variants {vdir} is not a directory")
        files = sorted(vdir.glob("*.json"))
        if not files:
            raise ConfigError(f"no *.json configs in {vdir}")
        variants = [(f.stem, configio.load_config(f)) for f in files]
    return base, variants


def cmd_table(args) -> int:
    base, variants = _variant_list(args)
    table = macs.reduction_table(base, variants, args.duration)
    if args.json:
        print(table.to_json())
    elif args.csv:
        print(table.to_csv())
    else:
        print(table.to_text())
    return EXIT_OK


def cmd_gen_weights(args) -> int:
    _refuse_clobber([args.output], args)
    config = configio.load_config(args.config)
    arrays = weights_io.gen_weights(config, args.seed)
    meta = {"config_name": config.name, "seed": args.seed}
    _write_replacing(args.output, lambda path: weights_io.save_weights(path, arrays, meta))
    total = sum(a.size for a in arrays.values())
    _say(f"{args.output}: {len(arrays)} tensors, {total} parameters, seed {args.seed}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.runs < 1:
        raise ConfigError(f"--runs must be at least 1, got {args.runs}")
    config = configio.load_config(args.config)
    report = macs.analyze(config, args.seconds)  # also rejects a duration under one sample
    if args.seconds > BENCH_SECONDS:
        raise ConfigError(f"--seconds must be at most {BENCH_SECONDS:g}, got {args.seconds:g}")
    net = _load_model(config, args.weights)

    rng = np.random.default_rng(0)
    n = int(round(args.seconds * config.stft.sample_rate))
    noisy = rng.standard_normal(n).astype(np.float32) * np.float32(0.1)
    model.enhance(net, noisy)  # warm-up
    times = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        model.enhance(net, noisy)
        times.append(time.perf_counter() - t0)
    wall = sorted(times)[len(times) // 2]
    print(f"audio      {args.seconds:g} s")
    print(f"wall       {wall:.3f} s (median of {args.runs})")
    print(f"rtf        {wall / args.seconds:.3f}")
    print(f"cost       {report.gps:.2f} G/s analyzed")
    print(f"throughput {report.total / wall / 1e9:.2f} GMAC/s effective")
    print(f"workers    {rnn._WORKERS} of {rnn._CPUS} CPUs, shares of >= {rnn.MIN_SHARE_ROWS} "
          f"RNN rows (gates >= {rnn.MIN_SPLIT_GATES} wide, a multiple of 8) "
          f"or >= {rnn.MIN_SHARE_ELEMENTS} elements")
    held = weight_arrays(net.weights)
    print(f"weights    {sum(a.nbytes for a in held) / 2**20:.1f} MiB "
          f"{'/'.join(sorted({a.dtype.name for a in held}))} "
          f"({sum(a.size for a in held)} parameters)")
    print(f"peak rss   {_peak_rss()}")
    return EXIT_OK


def _peak_rss() -> str:
    """This process's peak resident memory so far, or "n/a" without ``resource``."""
    try:
        import resource
    except ImportError:  # not on Windows
        return "n/a"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return f"{peak / (2**20 if sys.platform == 'darwin' else 2**10):.1f} MiB"


def cmd_calibrate(args) -> int:
    # only the flags given: calibrate_feature_dims states the defaults
    given = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    results = macs.calibrate_feature_dims(**given)
    print("feature_dim  hidden_dim  base_gps  grouped_gps  residual")
    for r in results:
        print(
            f"{r.feature_dim:>11}  {r.hidden_dim:>10}  {r.base_gps:8.4f}  "
            f"{r.grouped_gps:11.4f}  {r.residual:8.4f}"
        )
    best = results[0]
    print(f"best: feature_dim={best.feature_dim} hidden_dim={best.hidden_dim}")
    return EXIT_OK


class _UsageError(Exception):
    """A command line the parser refuses, reported by ``main`` as one line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print its usage block and exit 2
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bsrnnlite",
        description="Band-split RNN speech enhancement: inference and MACs accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = ", ".join(preset_names())

    p = sub.add_parser("enhance", help="denoise a wav file or directory")
    p.add_argument("--config", required=True, help=f"config JSON path or preset ({presets})")
    p.add_argument("--weights", required=True, help="BSRW weights file")
    p.add_argument("--input", "--in", dest="input", required=True, help="input wav or directory")
    p.add_argument("--output", "--out", dest="output", required=True, help="output wav or directory")
    p.add_argument("--oa", type=float, default=None, metavar="OMEGA",
                   help="observation adding: keep this share of the noisy input (0..1)")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("analyze", help="closed-form MACs report")
    p.add_argument("--config", required=True, help="config JSON path or preset")
    p.add_argument("--duration", type=float, default=1.0, help="audio seconds (default 1.0)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table", help="cost table of variants vs a base config")
    p.add_argument("--base", default=None, help="base config (default: canonical baseline)")
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--variants", default=None,
                      help="directory of *.json variant configs (default: built-in chain)")
    rows.add_argument("--extended", action="store_true",
                      help="with the built-in chain, include every strategy row")
    p.add_argument("--duration", type=float, default=1.0)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("gen-weights", help="write a deterministic seeded weights file")
    p.add_argument("--config", required=True, help="config JSON path or preset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "--out", dest="output", required=True, help="output .bsrw path")
    p.set_defaults(func=cmd_gen_weights)

    p = sub.add_parser("bench", help="time the real forward pass")
    p.add_argument("--config", required=True, help="config JSON path or preset")
    p.add_argument("--weights", default=None, help="BSRW weights (default: seeded)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--runs", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("calibrate", help="fit feature/hidden dims to the cost targets",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--target-base", type=float)
    p.add_argument("--target-grouped", type=float)
    for flag in ("--group", "--dim-min", "--dim-max", "--step", "--top"):
        p.add_argument(flag, type=int)
    p.set_defaults(func=cmd_calibrate)
    return parser


#: (exception class, category, exit code) of each failure: the first row that matches wins,
#: and the last matches any fault, so the one-line contract always holds
_FAILURES = ((_UsageError, "usage", EXIT_USAGE), (AudioFormatError, "audio", EXIT_AUDIO),
             (WeightsFormatError, "weights", EXIT_WEIGHTS), (ConfigError, "config", EXIT_CONFIG),
             (OSError, "io", EXIT_IO), (Exception, "internal", EXIT_INTERNAL))


def _say(text: str) -> None:
    """Write ``text`` to stderr as one line, each run of whitespace (line breaks too) one space."""
    print(" ".join(text.split()), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # only --help exits, after printing its synopsis
        return exc.code
    except Exception as exc:
        kind, category, code = next(row for row in _FAILURES if isinstance(exc, row[0]))
        message = f"{type(exc).__name__}: {exc}" if kind is Exception else exc
        _say(f"error: {category}: {message}")
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
