"""Command-line front end: runs the library scans and writes figure-ready data.

Output is deterministic byte for byte: rows are emitted in a fixed order and
every float is rendered with 17 significant digits.  CSV files are UTF-8
with LF line endings and a single header line naming the columns (the atlas
adds one leading comment line documenting its sign convention); JSON files
share one envelope shape {command, config, columns, rows} described by
docs/output_schema.json.  Non-finite values and missing ones are written as
"" in CSV and null in JSON.

Files are streamed 1,024 rows at a time.  The all-numeric commands
(``wave``, ``scatter``, ``dos``, ``binding``) hand the writer a 2-D float64
block, formatted in numpy by ``_g17.block_text``, which computes the
correctly rounded 17 digits itself and writes the bytes format(v, ".17g")
writes.  Only values within 1e-6 of a rounding tie, or with |v| outside
[1e-280, 1e280], go through Python's format.  The mixed-type commands hand
the writer a list of row tuples, written token by token.  A command runs to
completion before its file is opened, so a failed command leaves no file.

Each command's parser declares the flags of the RunConfig fields it reads
(``READS``) and refuses any other flag as an invalid configuration, so
RunConfig's field defaults are the only defaults, and a JSON envelope's
config holds them for the fields its command does not read.
"""

import argparse
import math
import re
import sys

import numpy as np

from dataclasses import dataclass

from . import __version__
from .core import CellKind, ChainParams, Regime, TAU, cell_matrix, tunnel_matrix
from .errors import ChainError, ParseError
from .spectra import (
    DEFAULT_BETA_RANGE,
    DEFAULT_GRID_STEPS,
    EdgeKind,
    _germ_rows,
    band_germs,
    bound_states,
    dos_estimate,
    _binding_terms,
    _single_cell_germ,
)
from .scattering import S_COLUMNS, commuting_deviations, commuting_points, s_matrix_grid
from .states import _local_kappa, bloch_eigensystem, sample_wavefunction
from .substitution import Word, fibonacci_word, word_counts

# The RunConfig fields each command reads besides out_path and format.  Its
# parser declares the flags of these fields and no others.  The JSON
# envelope's config records command, the _SCAN fields and regime.
_SCAN = ("word_spec", "gamma", "q", "beta_min", "beta_max", "steps")
READS = {
    "bands": (*_SCAN, "regime"),
    "bound": _SCAN,
    "atlas": ("q", "beta_min", "beta_max", "steps", "gamma_min", "gamma_max", "gamma_steps"),
    "scatter": _SCAN,
    "wave": ("word_spec", "gamma", "q", "regime", "beta", "initial"),
    "dos": ("word_spec", "gamma", "beta_min", "beta_max", "steps"),
    "binding": ("word_spec", "gamma", "beta_min", "beta_max", "steps"),
    "fib-info": ("word_spec",),
    "commute": ("gamma", "p_max"),
}
COMMANDS = tuple(READS)

# The flag of each RunConfig field.  No flag carries a default: a flag left
# out leaves the field's RunConfig default.
FLAGS = {
    "word_spec": ("--word", {"metavar": "WORD", "help": "fib:m=<int>, literal S/L string, or S^<n>"}),
    "gamma": ("--gamma", {"type": float}),
    "q": ("--q", {"type": float}),
    "beta_min": ("--beta-min", {"type": float}),
    "beta_max": ("--beta-max", {"type": float}),
    "steps": ("--steps", {"type": int}),
    "regime": ("--regime", {"choices": [r.value for r in Regime]}),
    "beta": ("--beta", {"type": float, "help": "single energy (default tau*pi, scattering)"}),
    "initial": ("--initial", {"choices": ["bloch", "plane"]}),
    "p_max": ("--p-max", {"type": int}),
    "gamma_min": ("--gamma-min", {"type": float}),
    "gamma_max": ("--gamma-max", {"type": float}),
    "gamma_steps": ("--gamma-steps", {"type": int}),
    "out_path": ("--out", {"metavar": "PATH", "help": "output path (default <command>.<format>)"}),
    "format": ("--format", {"choices": ["csv", "json"]}),
}


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
        if self.gamma_steps < 1:
            raise ValueError(f"gamma_steps must be >= 1, got {self.gamma_steps}")
        if 8 * max(4 * self.steps + 1, self.gamma_steps) > sys.maxsize:  # float64 bytes of the largest grid
            raise ValueError("steps or gamma_steps asks for a grid larger than numpy can index")
        if self.p_max < 1:
            raise ValueError(f"p_max must be >= 1, got {self.p_max}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.initial not in ("bloch", "plane"):
            raise ValueError(f"initial must be bloch or plane, got {self.initial!r}")
        if self.command == "wave" and self.beta is None and self.regime is not Regime.SCATTERING:
            raise ValueError("wave --regime bound needs --beta; the default energy tau*pi is scattering")
        if self.beta is not None:
            ChainParams(self.beta, self.gamma, self.q)  # beta > 0 and a finite gamma/beta


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
        if int(m.group(1)) < 1:
            raise ParseError(f"Fibonacci order must be >= 1 in {text!r}", position=6)
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


def _token(value, fmt: str) -> str:
    """One deterministic token per cell value in the given format ("csv" or "json").

    Non-finite floats and None are written as "" in CSV and null in JSON.
    """
    if type(value) is float or isinstance(value, np.floating):  # most cells, so tested first
        v = float(value)
        if not math.isfinite(v):
            return "null" if fmt == "json" else ""
        return format(v, ".17g")
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if fmt == "csv":
        return str(value)
    s = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


def _row_text(rows, fmt: str) -> str:
    """Rows rendered token by token: CSV lines, or JSON arrays joined by ","."""
    if fmt == "csv":
        return "".join(",".join(_token(v, fmt) for v in row) + "\n" for row in rows)
    return ",".join("[" + ",".join(_token(v, fmt) for v in row) + "]" for row in rows)


# Rows per written slice: the text of a slice, and the formatting
# temporaries of a float64 slice, stay a few hundred kB.
_BLOCK_ROWS = 1 << 10


def _chunk_texts(table, fmt: str):
    """The body of the file as bytes, _BLOCK_ROWS rows at a time.

    A float64 table goes through block_text; a list of row tuples goes
    token by token.
    """
    if isinstance(table, np.ndarray):
        # Imported here: its tables cost about 1 MB and 3 ms, which the
        # commands without a float64 block do not pay.
        from ._g17 import block_text as text
    else:
        def text(rows, fmt):
            return _row_text(rows, fmt).encode()
    for k in range(0, len(table), _BLOCK_ROWS):
        yield text(table[k : k + _BLOCK_ROWS], fmt)


def _write_output(config: RunConfig, columns, table, comment: str | None = None):
    """Stream one output file; table is a 2-D float64 array or a list of row tuples."""
    fmt = config.format
    if fmt == "csv":
        head = (f"# {comment}\n" if comment else "") + ",".join(columns) + "\n"
        sep, tail = b"", b""
    else:
        cfg_items = [(k, getattr(config, k)) for k in ("command", *_SCAN)]
        cfg_items.append(("regime", config.regime.value))
        if comment:
            cfg_items.append(("note", comment))
        cfg = ",".join(f'"{k}":{_token(v, fmt)}' for k, v in cfg_items)
        cols = ",".join(_token(c, fmt) for c in columns)
        head = (
            f'{{"command":{_token(config.command, fmt)},"config":{{{cfg}}},'
            f'"columns":[{cols}],"rows":['
        )
        sep, tail = b",", b"]}\n"
    with open(config.out_path, "wb") as fh:
        fh.write(head.encode())
        for i, text in enumerate(_chunk_texts(table, fmt)):
            if i:
                fh.write(sep)
            fh.write(text)
        fh.write(tail)


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
    gammas = np.linspace(config.gamma_min, config.gamma_max, config.gamma_steps)
    beta_range = (config.beta_min, config.beta_max)
    cells = (("S", Word("S")), ("L", Word("L")))
    regimes = ((Regime.BOUND, 1.0), (Regime.SCATTERING, -1.0))
    # One batched query per cell and regime; one stable sort on the gamma
    # index gives the file its (gamma, cell, regime) row order.
    tables, refused = [], []
    for name, word in cells:
        for regime, sign in regimes:
            (row, bound, plus, _), failed = _germ_rows(word, gammas, config.q, beta_range, config.steps, regime)
            refused += ((i, len(tables), err) for i, err in failed.items())  # in (gamma, query) order
            tables.append((row, np.full(row.size, name), plus, sign * bound))
    if refused:  # the first refused query in (gamma, cell, regime) order
        raise min(refused)[2]
    row, name, plus, beta = (np.concatenate(v) for v in zip(*tables))
    kind = np.where(plus, EdgeKind.X_PLUS_ONE.value, EdgeKind.X_MINUS_ONE.value)
    order = np.argsort(row, kind="stable")
    rows = list(zip(*(v[order].tolist() for v in (gammas[row], name, kind, beta))))
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
    return ["beta", *S_COLUMNS], np.vstack([betas, S]).T, None  # one row per beta


def _cmd_wave(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    beta = config.beta if config.beta is not None else TAU * math.pi
    params = ChainParams(beta, config.gamma, config.q, config.regime)
    kappa = _local_kappa(params)
    if config.initial == "bloch":
        eig = bloch_eigensystem(cell_matrix(params, CellKind.S), params)
        # entry values of the S-cell Bloch eigenvector, just before a delta
        lam = tunnel_matrix(params, 1.0).d
        cm, cp = eig.p / lam, eig.v * lam
        psi0 = cm + cp
        dpsi0 = kappa * (-cm + cp)
    else:
        psi0, dpsi0 = 1.0 + 0j, -kappa  # first-slot plane wave exp(-kappa xi)
    samples = sample_wavefunction(word, params, (psi0, dpsi0))
    columns = ["position", "psi_re", "psi_im", "dpsi_re", "dpsi_im", "abs_psi"]
    v, dv = samples.values, samples.derivative_values
    # np.hypot rounds like Python's abs(complex); np.abs can differ in the last bit
    table = np.column_stack(
        [samples.positions, v.real, v.imag, dv.real, dv.imag, np.hypot(v.real, v.imag)]
    )
    return columns, table, None


def _cmd_dos(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    if str(word) != "S":
        raise ParseError("dos supports only the single-cell word S", position=0)
    samples = dos_estimate(config.gamma, config.steps, (config.beta_min, config.beta_max))
    table = np.column_stack([samples.beta, samples.energy, samples.kb, samples.density])
    return ["beta", "energy", "kb", "density"], table, None


def _cmd_binding(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    total, n_s, n_l = word.counts()
    if n_l:
        raise ParseError("binding needs a pure S^n word", position=str(word).find("L"))
    n = total
    germ = _single_cell_germ(config.gamma, (config.beta_min, config.beta_max), config.steps)
    betas = np.linspace(germ.beta_lo, germ.beta_hi, config.steps + 1)[1:-1]
    table = np.column_stack([betas, _binding_terms(n, betas, config.gamma)])
    return ["beta", "kb", "lhs", "rhs"], table, None


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
    except (ChainError, OSError, MemoryError) as err:  # OSError: the output path cannot be written
        kind = MemoryError if isinstance(err, MemoryError) else type(err)  # numpy raises a private MemoryError
        token = err.token if isinstance(err, ChainError) else kind.__name__
        print(f"{token}: {err}", file=sys.stderr)
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
    for name, fields in READS.items():
        p = sub.add_parser(name, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for field in (*fields, "out_path", "format"):
            flag, kwargs = FLAGS[field]
            p.add_argument(flag, dest=field, **kwargs)
    return parser


def _config_from_args(args: argparse.Namespace, extra: list[str]) -> RunConfig:
    """The configuration of one parsed command line; ``extra`` is what its parser left."""
    values = vars(args)
    command = values["command"]
    if extra:  # a flag this command does not read, or a stray argument
        raise ValueError(f"{extra[0].split('=')[0]} does not apply to {command}")
    if "regime" in values:
        values["regime"] = Regime(values["regime"])
    if command == "wave" and "beta" not in values:
        values.setdefault("regime", Regime.SCATTERING)  # the default energy tau*pi scatters
    values.setdefault("out_path", f"{command}.{values.get('format', RunConfig.format)}")
    return RunConfig(**values)


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    try:
        config = _config_from_args(args, extra)
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
