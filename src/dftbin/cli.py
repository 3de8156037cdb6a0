"""Command-line front end.

Subcommands: bin (compute one DFT bin from a signal file), table (nominal
multiplication counts), cyclo (cyclotomic coefficients), filter (streaming
filter taps), dtmf (synthesize/detect tone blocks).

Signal files are text: one sample per line as `re` or `re,im`, `#` starts
a comment line, blank lines ignored. Exit codes: 0 ok, 1 stdout closed
early (broken pipe, no traceback), 2 parse/usage error or ArithmeticError
(e.g. a failed filter design), 3 length or shape mismatch.
"""

import argparse
import json
import math
import os
import sys

from .complexity import (ALGORITHMS, REFERENCE_TABLE_SPECS, complexity_table,
                         format_csv, format_table, measure)
from .cyclotomic import cyclotomic
from .dtmf import DEFAULT_CONFIG, detect, synthesize
from .streaming import design_filter

__all__ = ["main", "entry", "read_signal", "write_signal"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_PIPE = 1

ALG_TAGS = tuple(t.replace("_", "-") for t in ALGORITHMS)


class ShapeError(Exception):
    pass


def read_signal(path: str) -> list[float | complex]:
    """Parse a signal file: an `re` line gives a float sample, and an
    `re,im` line a complex one, so a real file runs the kernels' real
    layouts."""
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                try:
                    if len(parts) == 1:
                        z = float(parts[0])
                    elif len(parts) == 2:
                        z = complex(float(parts[0]), float(parts[1]))
                    else:
                        raise ValueError
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad sample line {line!r}")
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    raise ValueError(f"{path}:{lineno}: non-finite sample")
                samples.append(z)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    if not samples:
        raise ValueError(f"{path}: no samples")
    return samples


def write_signal(path: str, samples, header: str | None = None) -> None:
    """Write samples in the signal file format (real-only lines when exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for z in samples:
            z = complex(z)
            if z.imag == 0:
                fh.write(f"{z.real!r}\n")
            else:
                fh.write(f"{z.real!r},{z.imag!r}\n")


def _fmt_real(x: float) -> str:
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt_real(z.real)} {sign} {_fmt_real(abs(z.imag))}j"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def cmd_bin(args) -> int:
    samples = read_signal(args.input)
    if args.n is not None and args.n != len(samples):
        raise ShapeError(f"--n {args.n} but {args.input} holds {len(samples)} samples")
    result = measure(args.alg.replace("-", "_"), samples, args.k)
    print(f"Vk = {_fmt_complex(result.value)}")
    if args.counts:
        print(f"mults={result.counts.real_mults} adds={result.counts.real_adds}")
    return EXIT_OK


def _parse_table_spec(text: str) -> tuple[int, list[int]]:
    try:
        n_part, k_part = text.split(":", 1)
        N = int(n_part)
        ks = [int(s) for s in k_part.split(",") if s != ""]
    except ValueError:
        raise ValueError(f"bad table spec {text!r}, expected 'N:k1,k2,...'")
    if N < 1 or not ks:
        raise ValueError(f"bad table spec {text!r}, expected 'N:k1,k2,...'")
    return (N, ks)


def cmd_table(args) -> int:
    if args.paper:
        specs = REFERENCE_TABLE_SPECS
    else:
        specs = [_parse_table_spec(s) for s in args.spec]
    rows = complexity_table(specs)
    print(format_csv(rows) if args.csv else format_table(rows))
    return EXIT_OK


def _poly_str(coeffs: list[int]) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            x = "x" if i == 1 else f"x^{i}"
            body = x if mag == 1 else f"{mag}{x}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(terms) if terms else "0"


def cmd_cyclo(args) -> int:
    coeffs = cyclotomic(args.n)
    print(" ".join(str(c) for c in coeffs))
    print(_poly_str(coeffs))
    return EXIT_OK


def cmd_filter(args) -> int:
    spec = design_filter(args.n, args.k)
    if args.json:
        data = spec.as_json_dict()
        data["a"] = [[_round12(re), _round12(im)] for re, im in data["a"]]
        print(json.dumps(data))
        return EXIT_OK
    print(f"N = {spec.N}  k = {spec.k}  L = {spec.L}")
    for m, tap in enumerate(spec.a):
        print(f"a[{m}] = {_fmt_complex(tap)}")
    print("b = " + " ".join(str(b) for b in spec.b))
    return EXIT_OK


def cmd_dtmf(args) -> int:
    if args.synth is not None:
        if args.out is None:
            raise ValueError("--synth requires --out PATH")
        blocks = []
        for i, digit in enumerate(args.synth):
            blocks.extend(synthesize(digit, DEFAULT_CONFIG, 1.0,
                                     args.noise, args.seed + i))
        write_signal(args.out, blocks, header="dtmf blocks")
        return EXIT_OK
    samples = read_signal(args.detect)
    if any(z.imag != 0 for z in samples):
        raise ValueError("dtmf blocks must be real-valued")
    N = DEFAULT_CONFIG.block_size
    if len(samples) % N != 0:
        raise ShapeError(f"sample count {len(samples)} is not a multiple of {N}")
    for start in range(0, len(samples), N):
        block = [z.real for z in samples[start:start + N]]
        print(detect(block, DEFAULT_CONFIG, args.alg.replace("-", "_")) or "-")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftbin",
        description="Compute single DFT bins and their arithmetic costs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bin", help="compute one bin of a signal file")
    p.add_argument("--n", type=int, default=None,
                   help="expected sample count (default: infer)")
    p.add_argument("--k", type=int, required=True, help="bin index")
    p.add_argument("--alg", choices=ALG_TAGS, default="jco-goertzel")
    p.add_argument("--input", required=True, help="signal file path")
    p.add_argument("--counts", action="store_true",
                   help="also print measured mults/adds")
    p.set_defaults(func=cmd_bin)

    p = sub.add_parser("table", help="nominal multiplication-count table")
    p.add_argument("--spec", action="append", default=[],
                   metavar="N:k1,k2,...", help="rows to tabulate (repeatable)")
    p.add_argument("--paper", action="store_true",
                   help="emit the built-in 20-row reference table")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cyclo", help="print cyclotomic polynomial coefficients")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_cyclo)

    p = sub.add_parser("filter", help="design the streaming filter for a bin")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit tap JSON")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("dtmf", help="synthesize or detect DTMF blocks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--detect", metavar="PATH", help="signal file to decode")
    group.add_argument("--synth", metavar="DIGITS", help="digits to synthesize")
    p.add_argument("--out", metavar="PATH", help="output signal file for --synth")
    p.add_argument("--noise", type=float, default=0.0, help="noise rms")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--alg", choices=ALG_TAGS[1:4], default="goertzel")
    p.set_defaults(func=cmd_dtmf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; devnull quiets the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
