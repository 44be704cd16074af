"""Command-line front end: runs the library scans and writes figure-ready data.

Output is deterministic byte for byte: rows are emitted in a fixed order and
every float is rendered with 17 significant digits.  CSV files are UTF-8
with LF line endings and a single header line naming the columns (the atlas
adds one leading comment line documenting its sign convention); JSON files
share one envelope shape {command, config, columns, rows} described by
docs/output_schema.json.
"""

import argparse
import itertools
import math
import re
import sys

import numpy as np

from dataclasses import dataclass

from . import __version__
from .core import CellKind, ChainParams, Regime, TAU, cell_matrix
from .errors import ChainError, ParseError
from .spectra import (
    DEFAULT_BETA_RANGE,
    DEFAULT_GRID_STEPS,
    _CHUNK,
    band_germs,
    binding_equation_residual,
    bloch_label,
    bound_states,
    dos_estimate,
    _thread_count,
)
from .scattering import S_COLUMNS, commuting_deviations, commuting_points, s_matrix_grid
from .states import _local_kappa, bloch_eigensystem, sample_wavefunction
from .substitution import Word, fibonacci_word, word_counts
from .errors import OutOfBand

COMMANDS = ("bands", "bound", "atlas", "scatter", "wave", "dos", "binding", "fib-info", "commute")
# The commands that read --regime; the others reject it.
REGIME_COMMANDS = ("bands", "wave")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully determining one output file."""

    command: str
    word_spec: str = "S"
    gamma: float = 4.0
    q: float = TAU
    beta_min: float = DEFAULT_BETA_RANGE[0]
    beta_max: float = DEFAULT_BETA_RANGE[1]
    steps: int = DEFAULT_GRID_STEPS
    regime: Regime = Regime.BOUND
    out_path: str = "out.csv"
    format: str = "csv"
    # command-specific extras
    beta: float | None = None
    initial: str = "bloch"
    p_max: int = 3
    gamma_min: float = -6.0
    gamma_max: float = 6.0
    gamma_steps: int = 25

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("gamma", "q", "beta_min", "beta_max", "beta", "gamma_min", "gamma_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.q > 0.0:
            raise ValueError(f"q must be positive, got {self.q}")
        if not self.beta_min > 0.0:
            raise ValueError(f"beta_min must be positive, got {self.beta_min}")
        if not self.beta_min < self.beta_max:
            raise ValueError("beta_min must be < beta_max")
        if self.steps < 100:
            raise ValueError("steps must be >= 100")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.beta is not None and not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def parse_word_spec(text: str) -> Word:
    """Parse 'fib:m=<int>', a literal S/L string, or '<letter>^<n>'."""
    if not text:
        raise ParseError("empty word spec", position=0)
    if text.startswith("fib:"):
        m = re.fullmatch(r"fib:m=(\d+)", text)
        if not m:
            # first position where the spec deviates from the grammar
            expect = "fib:m="
            pos = next(
                (i for i, (a, b) in enumerate(zip(text, expect)) if a != b),
                min(len(text), len(expect)),
            )
            raise ParseError(f"malformed Fibonacci spec {text!r}", position=pos)
        return fibonacci_word(int(m.group(1)))
    m = re.fullmatch(r"([SL])\^(\d+)", text)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise ParseError(f"repeat count must be >= 1 in {text!r}", position=2)
        return Word(m.group(1) * n)
    bad = next((i for i, ch in enumerate(text) if ch not in ("S", "L")), None)
    if bad is not None:
        raise ParseError(
            f"invalid character {text[bad]!r} at position {bad} in {text!r}", position=bad
        )
    return Word(text)


def _fmt(value) -> str:
    """One deterministic token per cell value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return ""
        return format(v, ".17g")
    return str(value)


def _json_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    s = str(value)
    s = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


def _write_output(config: RunConfig, columns, rows, comment: str | None = None):
    if config.format == "csv":
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        cfg_items = [
            ("command", config.command),
            ("word_spec", config.word_spec),
            ("gamma", config.gamma),
            ("q", config.q),
            ("beta_min", config.beta_min),
            ("beta_max", config.beta_max),
            ("steps", config.steps),
            ("regime", config.regime.value),
        ]
        if comment:
            cfg_items.append(("note", comment))
        cfg = ",".join(f'"{k}":{_json_token(v)}' for k, v in cfg_items)
        cols = ",".join(_json_token(c) for c in columns)
        row_texts = []
        for row in rows:
            row_texts.append("[" + ",".join(_json_token(v) for v in row) + "]")
        body = ",".join(row_texts)
        text = (
            f'{{"command":{_json_token(config.command)},"config":{{{cfg}}},'
            f'"columns":[{cols}],"rows":[{body}]}}\n'
        )
    with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_bands(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    germs = band_germs(
        word, config.gamma, config.q, (config.beta_min, config.beta_max), config.steps,
        regime=config.regime,
    )
    columns = ["word", "gamma", "q", "germ_index", "beta_lo", "beta_hi", "edge_kind_lo", "edge_kind_hi"]
    rows = [
        (
            str(word),
            config.gamma,
            config.q,
            i,
            g.beta_lo,
            g.beta_hi,
            g.edge_kind_lo.value,
            g.edge_kind_hi.value,
        )
        for i, g in enumerate(germs)
    ]
    return columns, rows, None


def _cmd_bound(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    roots = bound_states(
        word, config.gamma, config.q, (config.beta_min, config.beta_max), config.steps
    )
    columns = ["word", "gamma", "q", "index", "beta_star"]
    rows = [(str(word), config.gamma, config.q, r.index, r.beta_star) for r in roots]
    return columns, rows, None


def _cmd_atlas(config: RunConfig):
    """Single-cell band edges over a gamma grid, both regimes, plus commuting lines."""
    columns = ["gamma", "cell", "edge_kind", "beta"]
    rows = []
    gammas = np.linspace(config.gamma_min, config.gamma_max, config.gamma_steps)
    beta_range = (config.beta_min, config.beta_max)
    for gamma in gammas:
        for cell_name, word in (("S", Word("S")), ("L", Word("L"))):
            for regime, sign in ((Regime.BOUND, 1.0), (Regime.SCATTERING, -1.0)):
                germs = band_germs(
                    word, float(gamma), config.q, beta_range, config.steps, regime=regime
                )
                for g in germs:
                    rows.append((float(gamma), cell_name, g.edge_kind_lo.value, sign * g.beta_lo))
                    rows.append((float(gamma), cell_name, g.edge_kind_hi.value, sign * g.beta_hi))
    p = 1
    while TAU * p * math.pi <= config.beta_max:
        rows.append((None, "", "commuting_line", -TAU * p * math.pi))
        p += 1
    comment = "scattering-regime band edges are serialized with negative beta (display convention)"
    return columns, rows, comment


def _cmd_scatter(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    betas = np.linspace(config.beta_min, config.beta_max, config.steps + 1)
    S = s_matrix_grid(word, config.gamma, config.q, betas)
    table = np.vstack([betas, S]).T  # one row per beta
    # Rows become Python floats a chunk at a time, never the whole table at once.
    rows = itertools.chain.from_iterable(
        table[k : k + _CHUNK].tolist() for k in range(0, len(table), _CHUNK)
    )
    return ["beta", *S_COLUMNS], rows, None


def _cmd_wave(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    beta = config.beta if config.beta is not None else TAU * math.pi
    params = ChainParams(beta, config.gamma, config.q, config.regime)
    kappa = _local_kappa(params)
    if config.initial == "bloch":
        eig = bloch_eigensystem(cell_matrix(params, CellKind.S), params)
        # entry values of the S-cell Bloch eigenvector, just before a delta
        lam = (
            math.exp(params.beta)
            if params.regime is Regime.BOUND
            else complex(math.cos(params.beta), -math.sin(params.beta))
        )
        cm, cp = eig.p / lam, eig.v * lam
        psi0 = cm + cp
        dpsi0 = kappa * (-cm + cp)
    else:
        psi0, dpsi0 = 1.0 + 0j, -kappa  # first-slot plane wave exp(-kappa xi)
    samples = sample_wavefunction(word, params, (psi0, dpsi0))
    columns = ["position", "psi_re", "psi_im", "dpsi_re", "dpsi_im", "abs_psi"]
    rows = [
        (float(x), v.real, v.imag, dv.real, dv.imag, abs(v))
        for x, v, dv in zip(samples.positions, samples.values, samples.derivative_values)
    ]
    return columns, rows, None


def _cmd_dos(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    if str(word) != "S":
        raise ParseError("dos supports only the single-cell word S", position=0)
    samples = dos_estimate(config.gamma, config.steps, (config.beta_min, config.beta_max))
    columns = ["beta", "energy", "kb", "density"]
    rows = [
        (float(b), float(e), float(k), float(r))
        for b, e, k, r in zip(samples.beta, samples.energy, samples.kb, samples.density)
    ]
    return columns, rows, None


def _cmd_binding(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    total, n_s, n_l = word.counts()
    if n_l:
        raise ParseError("binding needs a pure S^n word", position=str(word).find("L"))
    n = total
    germs = band_germs(Word("S"), config.gamma, 1.0, (config.beta_min, config.beta_max), config.steps)
    if len(germs) != 1:
        raise OutOfBand(f"expected one single-cell germ, found {len(germs)}")
    germ = germs[0]
    columns = ["beta", "kb", "lhs", "rhs"]
    rows = []
    for beta in np.linspace(germ.beta_lo, germ.beta_hi, config.steps + 1)[1:-1]:
        params = ChainParams(float(beta), config.gamma, 1.0, Regime.BOUND)
        x1 = cell_matrix(params, CellKind.S).x.real
        lhs, rhs = binding_equation_residual(n, float(beta), config.gamma)
        rows.append((float(beta), bloch_label(min(1.0, max(-1.0, x1))), lhs, rhs))
    return columns, rows, None


def _cmd_fib_info(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    columns = ["m", "word", "length", "count_S", "count_L"]
    if word.order_m is not None:
        m = word.order_m
        total, n_s, n_l = word_counts(m)
        rows = [(m, str(word), total, n_s, n_l)]
    else:
        total, n_s, n_l = word.counts()
        rows = [(None, str(word), total, n_s, n_l)]
    return columns, rows, None


def _cmd_commute(config: RunConfig):
    points = commuting_points(config.p_max, config.gamma)
    columns = ["p", "beta", "proportional", "in_overlap", "commutator_dev", "proportionality_dev"]
    rows = []
    for point, proportional, in_overlap in points:
        comm_dev, prop_dev = commuting_deviations(point.p, config.gamma)
        rows.append((point.p, point.beta_p, proportional, in_overlap, comm_dev, prop_dev))
    return columns, rows, None


_DISPATCH = {
    "bands": _cmd_bands,
    "bound": _cmd_bound,
    "atlas": _cmd_atlas,
    "scatter": _cmd_scatter,
    "wave": _cmd_wave,
    "dos": _cmd_dos,
    "binding": _cmd_binding,
    "fib-info": _cmd_fib_info,
    "commute": _cmd_commute,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        columns, rows, comment = _DISPATCH[config.command](config)
        _write_output(config, columns, rows, comment)
    except ChainError as err:
        print(f"{err.token}: {err}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltachain",
        description="Band germs, bound states, wavefunctions, and scattering data "
        "for 1D delta-potential chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--word", default="S", help="fib:m=<int>, literal S/L string, or S^<n>")
        p.add_argument("--gamma", type=float, default=4.0)
        p.add_argument("--q", type=float, default=TAU)
        p.add_argument("--beta-min", type=float, default=DEFAULT_BETA_RANGE[0])
        p.add_argument("--beta-max", type=float, default=DEFAULT_BETA_RANGE[1])
        p.add_argument("--steps", type=int, default=DEFAULT_GRID_STEPS)
        p.add_argument("--regime", choices=["bound", "scattering"], default=None)
        p.add_argument("--out", default=None, help="output path (default <command>.<format>)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if name == "wave":
            p.add_argument("--beta", type=float, default=None, help="single energy (default tau*pi)")
            p.add_argument("--initial", choices=["bloch", "plane"], default="bloch")
        if name == "commute":
            p.add_argument("--p-max", type=int, default=3)
        if name == "atlas":
            p.add_argument("--gamma-min", type=float, default=-6.0)
            p.add_argument("--gamma-max", type=float, default=6.0)
            p.add_argument("--gamma-steps", type=int, default=25)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.regime is not None and args.command not in REGIME_COMMANDS:
        raise ValueError(
            f"--regime does not apply to {args.command}; only {' and '.join(REGIME_COMMANDS)} read it"
        )
    regime = Regime(args.regime or "bound")
    if args.command == "wave":
        extras = {"beta": args.beta, "initial": args.initial, "regime": regime}
        if extras["beta"] is None:
            if args.regime == "bound":
                raise ValueError("wave --regime bound needs --beta; the default energy is scattering")
            extras["regime"] = Regime.SCATTERING  # default tau*pi commuting energy
    else:
        extras = {"regime": regime}
    if args.command == "commute":
        extras["p_max"] = args.p_max
    if args.command == "atlas":
        extras.update(
            gamma_min=args.gamma_min, gamma_max=args.gamma_max, gamma_steps=args.gamma_steps
        )
    out = args.out if args.out is not None else f"{args.command}.{args.format}"
    return RunConfig(
        command=args.command,
        word_spec=args.word,
        gamma=args.gamma,
        q=args.q,
        beta_min=args.beta_min,
        beta_max=args.beta_max,
        steps=args.steps,
        out_path=out,
        format=args.format,
        **extras,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _thread_count()  # a bad DELTACHAIN_THREADS is a configuration error
    except (ChainError, ValueError) as err:
        token = err.token if isinstance(err, ChainError) else "InvalidConfig"
        print(f"{token}: {err}", file=sys.stderr)
        return 2
    code = run(config)
    if code == 0:
        print(config.out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
