"""Command-line front end: runs the library scans and writes figure-ready data.

Output is deterministic byte for byte: rows are emitted in a fixed order and
every float is rendered with 17 significant digits.  CSV files are UTF-8
with LF line endings and a single header line naming the columns (the atlas
adds one leading comment line documenting its sign convention); JSON files
share one envelope shape {command, config, columns, rows} described by
docs/output_schema.json.  Non-finite values and missing ones are written as
"" in CSV and null in JSON.

Each command returns its table as named columns: float64 arrays, int or
bool arrays, and categorical columns given as codes into a few values, each
value encoded once.  One writer streams the file 1,024 rows at a time and
formats each block column by column in numpy (``_g17.blocks``): floats get
the correctly rounded 17 digits ``_g17`` computes itself, the bytes
format(v, ".17g") writes, and a categorical value's slot is copied from its
token table.  Only values within 1e-6 of a rounding tie, or with |v| outside
[1e-280, 1e280], go through Python's format.  Every command formats through
``_g17``, so it is imported with the module, and its tables are built at
set-up.  A command computes everything that can refuse its input before
its file is opened; ``wave`` then hands the writer its rows in parts,
sampled while the file is written, so it never holds its whole table.  A
run that fails after the file is opened closes and removes it, so a failed
run leaves no file (a device or FIFO named by --out is left in place).

Each command's parser declares the flags of the RunConfig fields it reads
(``READS``) and refuses any other flag as an invalid configuration, so
RunConfig's field defaults are the only defaults, and a JSON envelope's
config holds them for the fields its command does not read.
"""

import argparse
import itertools
import math
import os
import re
import stat
import sys

import numpy as np

from dataclasses import dataclass

from . import __version__
from ._g17 import blocks
from .core import CellKind, ChainParams, Regime, TAU, cell_matrix, tunnel_matrix
from .errors import ChainError, ParseError
from .spectra import (
    DEFAULT_BETA_RANGE,
    DEFAULT_GRID_STEPS,
    EdgeKind,
    _germ_rows,
    bound_states,
    dos_estimate,
    _binding_terms,
    _single_cell_germ,
)
from .scattering import S_COLUMNS, commuting_deviations, commuting_points, s_matrix_grid
from .kernel import _CHUNK
from .states import _cell_samples, _local_kappa, bloch_eigensystem, cell_coefficients
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
        if self.gamma_min > self.gamma_max:
            raise ValueError("gamma_min must be <= gamma_max")
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


# Rows per written slice: the text of a slice, and the formatting
# temporaries of its float64 columns, stay a few hundred kB.
_BLOCK_ROWS = 1 << 10


def _repeat(value, length: int):
    """A categorical column holding one value length times."""
    return np.zeros(length, np.intp), (value,)


def _run_columns(word: Word, config: RunConfig, length: int) -> dict:
    """The word, gamma and q columns that bands and bound repeat on each row."""
    values = (("word", str(word)), ("gamma", config.gamma), ("q", config.q))
    return {name: _repeat(value, length) for name, value in values}


def _encoded(column, fmt: str):
    """A column as _g17.blocks takes it: a float64 array, or codes and tokens.

    A column is a float64 array, an int or bool array, or a categorical
    pair (codes, values): an int array of indices into a sequence of
    values.  Each distinct value is encoded once, by _token.  An int column
    within 2**53 of zero is written as float64, whose %.17g is the integer;
    other int columns become categorical.
    """
    if isinstance(column, np.ndarray):
        if column.dtype == bool:
            column = column.view(np.uint8), (False, True)
        elif column.dtype.kind not in "iu":
            return column
        elif np.all((column >= -(2**53)) & (column <= 2**53)):
            return column.astype(np.float64)
        else:
            values, codes = np.unique(column, return_inverse=True)
            column = codes, values.tolist()
    codes, values = column
    return codes, [_token(v, fmt).encode() for v in values]


def _write_output(config: RunConfig, parts, comment: str | None = None):
    """Stream one output file, _BLOCK_ROWS rows at a time.

    parts is a table, or an iterable of one or more tables whose rows
    follow one another; a table maps each name to its column (see
    _encoded).  Every part has the first part's names, and each of its
    columns encodes as the first part's does: as float64, or as the same
    categorical values.  A later part may be computed while the file is
    written.  On any failure after the file is opened, the file is closed
    and removed, if its descriptor shows a regular file.
    """
    parts = iter([parts] if isinstance(parts, dict) else parts)
    first = next(parts)
    fmt = config.format
    if fmt == "csv":
        head = (f"# {comment}\n" if comment else "") + ",".join(first) + "\n"
        sep, tail = b"", b""
    else:
        cfg_items = [(k, getattr(config, k)) for k in ("command", *_SCAN)]
        cfg_items.append(("regime", config.regime.value))
        if comment:
            cfg_items.append(("note", comment))
        cfg = ",".join(f'"{k}":{_token(v, fmt)}' for k, v in cfg_items)
        cols = ",".join(_token(c, fmt) for c in first)
        head = (
            f'{{"command":{_token(config.command, fmt)},"config":{{{cfg}}},'
            f'"columns":[{cols}],"rows":['
        )
        sep, tail = b",", b"]}\n"
    encoded = ([_encoded(column, fmt) for column in part.values()] for part in itertools.chain([first], parts))
    fh, regular = open(config.out_path, "wb"), False
    try:
        with fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # not a device, FIFO or socket
            fh.write(head.encode())
            for i, text in enumerate(blocks(encoded, fmt, _BLOCK_ROWS)):
                if i:
                    fh.write(sep)
                fh.write(text)
            fh.write(tail)
    except BaseException:
        if regular:
            os.remove(config.out_path)
        raise


_KIND_VALUES = (EdgeKind.X_MINUS_ONE.value, EdgeKind.X_PLUS_ONE.value)


def _cmd_bands(config: RunConfig):
    """band_germs' germs, written from _germ_rows' edge table as atlas writes it: low edges at even positions."""
    word = parse_word_spec(config.word_spec)
    beta_range = (config.beta_min, config.beta_max)
    (_, bound, plus, _), refused = _germ_rows(word, [config.gamma], config.q, beta_range, config.steps, config.regime)
    if refused:
        raise refused[0]
    kinds = plus.astype(np.intp)
    table = {
        **_run_columns(word, config, bound.size // 2),
        "germ_index": np.arange(bound.size // 2),
        "beta_lo": bound[0::2],
        "beta_hi": bound[1::2],
        "edge_kind_lo": (kinds[0::2], _KIND_VALUES),
        "edge_kind_hi": (kinds[1::2], _KIND_VALUES),
    }
    return table, None


def _cmd_bound(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    roots = bound_states(
        word, config.gamma, config.q, (config.beta_min, config.beta_max), config.steps
    )
    table = {
        **_run_columns(word, config, len(roots)),
        "index": np.array([r.index for r in roots], np.int64),
        "beta_star": np.array([r.beta_star for r in roots], np.float64),
    }
    return table, None


def _cmd_atlas(config: RunConfig):
    """Single-cell band edges over a gamma grid, both regimes, plus commuting lines."""
    gammas = np.linspace(config.gamma_min, config.gamma_max, config.gamma_steps)
    beta_range = (config.beta_min, config.beta_max)
    cells = ("S", "L")
    regimes = ((Regime.BOUND, 1.0), (Regime.SCATTERING, -1.0))
    # One batched query per cell and regime; one stable sort on the gamma
    # index gives the file its (gamma, cell, regime) row order.
    tables, refused = [], []
    for code, name in enumerate(cells):
        for regime, sign in regimes:
            (row, bound, plus, _), failed = _germ_rows(Word(name), gammas, config.q, beta_range, config.steps, regime)
            refused += ((i, len(tables), err) for i, err in failed.items())  # in (gamma, query) order
            tables.append((row, np.full(row.size, code), plus, sign * bound))
    if refused:  # the first refused query in (gamma, cell, regime) order
        raise min(refused)[2]
    row, cell, plus, beta = (np.concatenate(v) for v in zip(*tables))
    order = np.argsort(row, kind="stable")
    lines = []  # commuting lines, after the edges: no gamma, no cell
    p = 1
    while TAU * p * math.pi <= config.beta_max:
        lines.append(-TAU * p * math.pi)
        p += 1
    marks = np.full(len(lines), 2)
    table = {
        "gamma": np.concatenate([gammas[row[order]], np.full(len(lines), math.nan)]),
        "cell": (np.concatenate([cell[order], marks]), (*cells, "")),
        "edge_kind": (np.concatenate([plus[order], marks]), (*_KIND_VALUES, "commuting_line")),
        "beta": np.concatenate([beta[order], lines]),
    }
    comment = "scattering-regime band edges are serialized with negative beta (display convention)"
    return table, comment


def _cmd_scatter(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    betas = np.linspace(config.beta_min, config.beta_max, config.steps + 1)
    S = s_matrix_grid(word, config.gamma, config.q, betas)
    return {"beta": betas, **dict(zip(S_COLUMNS, S))}, None  # one row per beta


_WAVE_COLUMNS = ("position", "psi_re", "psi_im", "dpsi_re", "dpsi_im", "abs_psi")
# Cells per part of a wave file: 8,192 rows of the 64-point grid.
_WAVE_CELLS = _CHUNK // 64


def _wave_part(positions, v, dv):
    # np.hypot rounds like Python's abs(complex); np.abs can differ in the last bit
    columns = (positions, v.real, v.imag, dv.real, dv.imag, np.hypot(v.real, v.imag))
    return dict(zip(_WAVE_COLUMNS, columns))


def _cmd_wave(config: RunConfig):
    """The initial row, then parts of _WAVE_CELLS cells, each sampled as it is written."""
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
    # Raises OverflowRisk before the file is opened.
    coeffs = cell_coefficients(word, params, (psi0, dpsi0))
    initial = _wave_part(np.zeros(1), np.array([complex(psi0)]), np.array([complex(dpsi0)]))
    parts = itertools.starmap(_wave_part, _cell_samples(word, params, coeffs, _WAVE_CELLS))
    return itertools.chain([initial], parts), None


def _cmd_dos(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    if str(word) != "S":
        raise ParseError("dos supports only the single-cell word S", position=0)
    samples = dos_estimate(config.gamma, config.steps, (config.beta_min, config.beta_max))
    names = ("beta", "energy", "kb", "density")
    return {name: getattr(samples, name) for name in names}, None


def _cmd_binding(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    total, n_s, n_l = word.counts()
    if n_l:
        raise ParseError("binding needs a pure S^n word", position=str(word).find("L"))
    n = total
    germ = _single_cell_germ(config.gamma, (config.beta_min, config.beta_max), config.steps)
    betas = np.linspace(germ.beta_lo, germ.beta_hi, config.steps + 1)[1:-1]
    kb, lhs, rhs = _binding_terms(n, betas, config.gamma).T
    return {"beta": betas, "kb": kb, "lhs": lhs, "rhs": rhs}, None


def _cmd_fib_info(config: RunConfig):
    word = parse_word_spec(config.word_spec)
    m = word.order_m
    total, n_s, n_l = word.counts() if m is None else word_counts(m)
    values = {"m": m, "word": str(word), "length": total, "count_S": n_s, "count_L": n_l}
    return {name: _repeat(value, 1) for name, value in values.items()}, None


def _cmd_commute(config: RunConfig):
    rows = [
        (point.p, point.beta_p, proportional, in_overlap, *commuting_deviations(point.p, config.gamma))
        for point, proportional, in_overlap in commuting_points(config.p_max, config.gamma)
    ]
    names = ("p", "beta", "proportional", "in_overlap", "commutator_dev", "proportionality_dev")
    return {name: np.array(column) for name, column in zip(names, zip(*rows))}, None


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
        parts, comment = _DISPATCH[config.command](config)
        _write_output(config, parts, comment)
    except (ChainError, OSError, MemoryError) as err:  # OSError: the output path cannot be written
        kind = MemoryError if isinstance(err, MemoryError) else type(err)  # numpy raises a private MemoryError
        token = err.token if isinstance(err, ChainError) else kind.__name__
        print(f"{token}: {err}", file=sys.stderr)
        return 1
    return 0


def _build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The command-line parser, with a subparser for each of commands."""
    parser = argparse.ArgumentParser(
        prog="deltachain",
        description="Band germs, bound states, wavefunctions, and scattering data "
        "for 1D delta-potential chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for field in (*READS[name], "out_path", "format"):
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


def _joined_numbers(argv: list[str]) -> list[str]:
    """argv with each float flag joined to a negative number after it, as --gamma=-1e-3.

    argparse reads only -<digits> and -<digits>.<digits> as negative numbers,
    and takes a token such as -1e-3 for a flag.
    """
    floats = {flag for flag, kwargs in FLAGS.values() if kwargs.get("type") is float}
    out = []
    for token in argv:
        if out and out[-1] in floats and token.startswith("-") and _is_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    # Free one untouched 1 MB block.  Freeing an mmapped block above the mmap
    # threshold (128 kB at start) raises it to the block's size and the trim
    # threshold to twice that (glibc, mallopt(3)), so scan chunks and writer
    # blocks reuse resident heap pages instead of trimming and refaulting them.
    np.empty(1 << 17)
    argv = _joined_numbers(sys.argv[1:] if argv is None else argv)
    # A named command needs only its own subparser; --help, --version and an
    # unknown command get the full parser.
    parser = _build_parser(argv[:1] if argv[:1] and argv[0] in READS else COMMANDS)
    args, extra = parser.parse_known_args(argv)
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
