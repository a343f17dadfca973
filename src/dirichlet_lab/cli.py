"""Experiment runner: load a problem from JSON, solve, verify, emit tables.

``dirichlet-lab run spec.json [--out DIR] [--seed N] [--suite NAME ...]
[--tol KEY=VAL ...] [--paths N]`` solves the problem, runs the requested
verification suites (default: all that ``SUITES`` registers for the backend),
writes ``solution.csv``, ``residuals.json``, ``trace.csv`` and ``mc.json``
into the output directory, and exits nonzero iff any contract fails.
``--tol`` overrides a default of ``CONTRACTS`` (``wos_exit_chi2`` is a floor,
the rest are ceilings); ``--paths`` sets each Monte Carlo oracle's path count.
A suite or ``--tol`` key that does not apply to the backend exits 2 unsolved.

``dirichlet-lab gen --seed N --count K [--out DIR]`` writes reproducible
random graph problem pairs (ordered for comparison runs).

The suites run one after another, in ``SUITES`` order, on the calling thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chain_sim, frac1d, trace, wos
from .forms import form_from_dict, form_to_dict
from .potential import exit_second_moment, green_apply, green_operator
from .projection import poisson_kernel
from .semilinear import (ProblemSpec, apriori_report, exp_nonlinearity, power_nonlinearity,
                         residual_probabilistic, solve, table_nonlinearity, vd_check,
                         verify_projective, very_weak_defect, zero_nonlinearity)
from .suite import random_ordered_pair

SCHEMA = 1
# (backend, --tol key) -> (default contract, direction). A checked value
# passes when it lies strictly below, or strictly above, its contract.
CONTRACTS = {
    ("graph", "fixed_point"): (1e-8, "below"),
    ("graph", "projective_variational"): (1e-8, "below"),
    ("graph", "very_weak"): (1e-9, "below"),
    ("graph", "vd_identity"): (1e-9, "below"),
    ("graph", "vd_norm_bound"): (1e-9, "below"),
    ("graph", "vd_kernel_contraction"): (1e-9, "below"),
    ("graph", "apriori"): (1e-9, "below"),
    ("graph", "second_moment"): (1e-10, "below"),
    ("frac1d", "fixed_point"): (1e-6, "below"),
    ("frac1d", "projective_exhaustion"): (1e-2, "below"),
    ("frac1d", "trace"): (1e-3, "below"),
    ("frac1d", "wos_exit_chi2"): (1e-3, "above"),
}
# backend -> the suites that apply, in submission order. Suite ``s`` of a
# backend is the module function ``_suite_<s>_<graph|frac>``.
SUITES = {"graph": ("verify", "estimates", "trace", "mc"),
          "frac1d": ("verify", "trace", "wos", "estimates")}
_SUFFIX = {"graph": "graph", "frac1d": "frac"}
# how a value meets its contract: the table directions, and Monte Carlo bands
_PASSES = {"below": operator.lt, "above": operator.gt, "band": operator.le}


@dataclass
class RunConfig:
    """One experiment; ``suites=None`` runs every suite of the spec's backend."""

    spec_path: Path
    out_dir: Path
    suites: tuple | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    paths: float = 100000
    dump_kernels: bool = False

    def __post_init__(self):
        self.spec_path = Path(self.spec_path)
        self.out_dir = Path(self.out_dir)
        if not self.spec_path.exists():
            raise FileNotFoundError(self.spec_path)
        unknown = set(self.tolerances) - {key for _, key in CONTRACTS}
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, val in self.tolerances.items():
            if not val > 0:  # NaN fails too
                raise ValueError(f"tolerance {key} must be positive, got {val}")
        if not (math.isfinite(self.paths) and int(self.paths) >= 100):
            raise ValueError(f"paths must be finite and at least 100 (n_paths >= 100), "
                             f"got {self.paths}")
        bad = set(self.suites or ()) - {s for names in SUITES.values() for s in names}
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _atoms(atoms) -> tuple:
    """``mu.atoms``: a list of ``[position, weight]`` pairs of numbers."""
    try:
        if isinstance(atoms, list) and all(isinstance(a, list) for a in atoms):
            return tuple((float(p), float(w)) for p, w in atoms)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"spec key 'mu.atoms' must be a list of [position, weight] pairs, "
                     f"got {atoms!r}")


def _indices(key: str, value) -> list:
    """A spec's list of integer state indices (``D``, a graph nest level)."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise ValueError(f"spec key {key!r} must be a list of integer state indices, "
                         f"got {value!r}")
    return value


def _number(key: str, value) -> float:
    """A spec's real number: finite, and not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"spec key {key!r} must be a finite number, got {value!r}")


def _vector(key: str, value) -> np.ndarray:
    """A spec's flat list of finite numbers (``g``, ``mu``, ``f.b``, ``f.y``,
    ``f.values``); an error names the key and its first bad entry."""
    if not isinstance(value, list):
        raise ValueError(f"spec key {key!r} must be a list of finite numbers, "
                         f"got {type(value).__name__}")
    for k, v in enumerate(value):
        try:
            _number(key, v)
        except ValueError:
            raise ValueError(f"spec key {key!r} must be a list of finite numbers, "
                             f"got {v!r} at entry {k}") from None
    return np.array(value, dtype=float)


def _absorption_coefficient(value):
    """A spec's ``f.b``, nonnegative: a number, or a list as an array."""
    b = _vector("f.b", value) if isinstance(value, list) else _number("f.b", value)
    negative = np.ravel(b)[np.ravel(b) < 0]
    if negative.size:
        raise ValueError(f"spec key 'f.b' must be nonnegative, got {float(negative[0])!r}")
    return b


def _count(key: str, value) -> int:
    """A spec's count: an integer >= 1, and not a bool."""
    if type(value) is not int or value < 1:
        raise ValueError(f"spec key {key!r} must be an integer >= 1, got {value!r}")
    return value


def _matrix(key: str, value) -> np.ndarray:
    """A spec's square matrix of finite numbers (``form.J``), from the array
    ``_json_matrix`` decoded or from json's nested lists; an error names the
    key and its first bad entry or row."""
    arr = None
    # json's lists hold only ints and floats (np.asarray reads "0.5" and true too)
    if isinstance(value, np.ndarray) or (
            isinstance(value, list) and all(isinstance(row, list) for row in value)
            and set(map(type, itertools.chain.from_iterable(value))) <= {int, float}):
        try:
            arr = np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an int beyond the float range
            pass
    if arr is not None and arr.ndim == 2 and arr.shape[0] == arr.shape[1] \
            and np.isfinite(arr).all():
        return arr
    raise ValueError(f"spec key {key!r} must be a square matrix of finite numbers, "
                     f"got {_first_bad_entry(key, value)}")


def _first_bad_entry(key: str, value) -> str:
    """Where ``value`` first fails to be a square matrix of finite numbers."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, list):
        return type(value).__name__
    for i, row in enumerate(value):
        if not isinstance(row, list):
            return f"{type(row).__name__} as row {i}"
        for j, v in enumerate(row):
            try:
                _number(key, v)
            except ValueError:
                return f"{v!r} at entry [{i}, {j}]"
        if len(row) != len(value):
            return f"{len(row)} entries in row {i} of {len(value)}"
    return repr(value)


# The spec's JSON text.  Every value is json's, and comes from json's scanner,
# except the jump matrix at key path form.J: a compact matrix
# [[t,...,t],...,[t,...,t]] whose entries t are at most 8 bytes long (the
# benchmark's graph specs write J in units of 1e-3) is decoded block by block
# into a float array.  Each entry is packed into one uint64 key, and each
# distinct key is parsed once by json's scanner, so the array holds the bits
# that np.asarray makes of json's lists.  Any other text of form.J, valid or
# not, goes to json's scanner whole.
_SCAN = json.JSONDecoder().scan_once
_WS = json.decoder.WHITESPACE.match
_BLOCK_CHARS = 1 << 20  # text per block: 2**18 entries of up to 3 characters
# distinct entries, each parsed alone (about 1.3 us): 4,096 of them take
# about 5 ms, a bound on the time lost to a matrix that json reads faster
_VOCAB_MAX = 1 << 12
_HASH_BITS = 20  # a hash table has at most 2**20 slots
_MULTIPLIERS = tuple(np.uint64(a) for a in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                            0x94D049BB133111EB, 0xC2B2AE3D27D4EB4F))
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_OPEN, _CLOSE, _COMMA = b"[],"


def _hash(keys: np.ndarray, multiplier: np.uint64, bits: int) -> np.ndarray:
    """Slots in a table of ``2**bits``: the top bits of ``keys * multiplier``."""
    return ((keys * multiplier) >> np.uint64(64 - bits)).view(np.intp)


class _NotCompact(Exception):
    """The text of ``form.J`` is not a compact matrix of short entries."""


def _scan(text: str, pos: int):
    """The JSON value at ``text[pos]`` and the index after it, by json's scanner."""
    try:
        return _SCAN(text, pos)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None


def _json_spec(text: str):
    """The JSON document ``text``, as ``json.loads`` reads it, but for ``form.J``."""
    obj, end = _json_value(text, _WS(text, 0).end())
    if _WS(text, end).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return obj


def _json_value(text: str, pos: int, path: tuple = ()):
    """The JSON value at ``text[pos]`` and the index after it.  The objects on
    the key path to ``form.J`` are read member by member, the matrix there by
    ``_json_matrix``, and every other value by json's scanner."""
    if path == ("form", "J"):
        return _json_matrix(text, pos)
    if path not in ((), ("form",)) or not text.startswith("{", pos):
        return _scan(text, pos)
    obj, pos = {}, _WS(text, pos + 1).end()
    if text.startswith("}", pos):
        return obj, pos + 1
    while True:
        if not text.startswith('"', pos):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                       text, pos)
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = _WS(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        obj[key], pos = _json_value(text, _WS(text, pos + 1).end(), path + (key,))
        pos = _WS(text, pos).end()
        if text.startswith("}", pos):
            return obj, pos + 1
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = _WS(text, pos + 1).end()


def _json_matrix(text: str, pos: int):
    """The JSON value at ``text[pos]`` and the index after it: a float array
    for a compact matrix of short entries, else whatever json's scanner reads."""
    try:
        return _compact_matrix(text, pos)
    except _NotCompact:
        return _scan(text, pos)


def _compact_matrix(text: str, pos: int):
    """``_json_matrix`` of a compact matrix; raises ``_NotCompact`` on other text."""
    if not text.startswith("[[", pos):
        raise _NotCompact
    vocab, blocks = _Vocabulary(), []
    start, size = pos + 1, _BLOCK_CHARS
    while True:
        # the block runs from a row's "[" to the last "]" of a row whose next
        # character it holds: "," before another row, "]" at the matrix's end
        raw = text[start:start + size].encode("ascii", "replace") + bytes(8)
        chars = np.frombuffer(raw, dtype=np.uint8)[:-8]
        ends = np.flatnonzero(chars[:-1] == _CLOSE)
        last = ends[chars[ends + 1] == _CLOSE][:1]
        if not (last.size or ends.size):
            if start + size >= len(text):
                raise _NotCompact
            size *= 2  # a row longer than the block
            continue
        cut = int(last[0] if last.size else ends[-1])
        values = _compact_rows(chars[:cut + 1], raw, vocab)
        if blocks and values.shape[1] != blocks[0].shape[1]:
            raise _NotCompact
        blocks.append(values)
        if last.size:
            return np.concatenate(blocks), start + cut + 2
        if chars[cut + 1] != _COMMA:
            raise _NotCompact
        start += cut + 2


def _compact_rows(chars: np.ndarray, raw: bytes, vocab) -> np.ndarray:
    """The rows ``[t,...,t],...,[t,...,t]`` of ``chars`` (padded to ``raw``) as
    a float array; raises ``_NotCompact`` on any other layout or entry."""
    seps = np.flatnonzero((chars == _COMMA) | (chars == _OPEN) | (chars == _CLOSE))
    kinds = chars[seps]
    opens, closes = seps[kinds == _OPEN], seps[kinds == _CLOSE]
    lengths = np.diff(seps) - 1  # of the entries between separators
    entry = lengths > 0
    # rows open at 0 and two after each earlier row's "]", past a ","; the
    # separators of those "],[" are the only adjacent ones, so no entry is empty
    if not (opens.size == closes.size and opens[0] == 0
            and np.array_equal(opens[1:], closes[:-1] + 2)
            and np.all(chars[closes[:-1] + 1] == _COMMA)
            and lengths.size - np.count_nonzero(entry) == 2 * (opens.size - 1)):
        raise _NotCompact
    starts, lengths = seps[:-1][entry] + 1, lengths[entry]
    per_row = np.diff(np.searchsorted(starts, closes), prepend=0)
    # a NUL byte would pack like the end of a shorter entry
    if (lengths.max() > 8 or np.any(per_row != per_row[0])
            or raw.find(b"\0", 0, chars.size) >= 0):
        raise _NotCompact
    # entry k is the bytes raw[starts[k]:][:lengths[k]], read as one integer
    window = np.ndarray((chars.size,), dtype="<u8", buffer=raw, strides=(1,))
    keys = window[starts] & _MASKS[lengths]
    return vocab.values(keys).reshape(opens.size, per_row[0])


class _Vocabulary:
    """The distinct entries of a compact matrix and their values, found through
    a multiplicative hash that is collision-free on the entries; ``_add``
    raises ``_NotCompact`` when none of ``_MULTIPLIERS`` is."""

    def __init__(self):
        self.keys, self.vals = np.zeros(0, dtype=np.uint64), np.zeros(0)
        self.multiplier, self.bits = None, 0
        self.table_keys = self.table_vals = None

    def values(self, keys: np.ndarray) -> np.ndarray:
        if self.keys.size:
            slots = _hash(keys, self.multiplier, self.bits)
            new = keys[self.table_keys.take(slots) != keys]
        else:
            new = keys
        if new.size:
            self._add(new)
            slots = _hash(keys, self.multiplier, self.bits)
        return self.table_vals.take(slots)

    def _add(self, new: np.ndarray) -> None:
        # distinct keys without sorting all of them: one per slot of a table
        # of twice their number, and the few that lost their slot to another
        bits = min(_HASH_BITS, (2 * new.size).bit_length())
        slots = _hash(new, _MULTIPLIERS[0], bits)
        table = np.zeros(1 << bits, dtype=np.uint64)
        table[slots] = new
        kept = table[np.flatnonzero(table)]  # most of the distinct keys
        if self.keys.size + kept.size > _VOCAB_MAX:  # checked before sorting them
            raise _NotCompact
        new = np.union1d(kept, new[table.take(slots) != new])
        keys = np.concatenate([self.keys, new])
        # 2 * keys**2 slots or more (up to 2**20), so that a random hash
        # would be collision-free with odds of at least 3 in 4
        bits = min(_HASH_BITS, 2 * keys.size.bit_length() + 1)
        for a in _MULTIPLIERS:
            slots = _hash(keys, a, bits)
            if np.unique(slots).size == slots.size:
                break
        else:
            raise _NotCompact
        vals = np.concatenate([self.vals, [self._parse(int(k)) for k in new]])
        self.keys, self.vals, self.multiplier, self.bits = keys, vals, a, bits
        self.table_keys = np.zeros(1 << bits, dtype=np.uint64)
        self.table_vals = np.zeros(1 << bits)
        self.table_keys[slots], self.table_vals[slots] = keys, self.vals

    @staticmethod
    def _parse(key: int) -> float:
        """The entry packed into ``key``, read by json's scanner as one number."""
        token = key.to_bytes(8, "little").rstrip(b"\0").decode("ascii")
        try:
            value, end = _SCAN(token, 0)
        except (StopIteration, ValueError):
            raise _NotCompact from None
        if end != len(token) or type(value) not in (int, float):
            raise _NotCompact
        return float(value)


def _kind(name: str, obj: dict):
    """The popped ``kind`` of a spec's ``f`` or ``g``; it may be absent or
    null only when the object has no other keys."""
    kind = obj.pop("kind", None)
    if kind is None and obj:
        raise ValueError(f"spec key '{name}.kind' is missing or null, but {name} has keys "
                         f"{sorted(obj)}")
    return kind


def _nonlinearity_from_dict(obj: dict):
    """Absorption from a spec's ``f``; pops the keys it reads."""
    kind = _kind("f", obj)
    if kind in (None, "zero"):
        return zero_nonlinearity()
    if kind == "power":
        return power_nonlinearity(_absorption_coefficient(obj.pop("b", 1.0)),
                                  _number("f.p", obj.pop("p", 1.0)))
    if kind == "exp":
        return exp_nonlinearity(_absorption_coefficient(obj.pop("b", 1.0)))
    if kind == "custom-table":
        return table_nonlinearity(_vector("f.y", obj.pop("y", None)),
                                  _vector("f.values", obj.pop("values", None)))
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


def _exterior_from_dict(obj: dict) -> frac1d.ExteriorData:
    """Exterior data from a continuum spec's ``g``; pops the keys it reads."""
    kind = _kind("g", obj)
    if kind in (None, "zero"):
        return frac1d.zero_exterior()
    if kind == "const":
        return frac1d.const_exterior(_number("g.value", obj.pop("value", 1.0)))
    if kind == "indicator":
        return frac1d.indicator_exterior(_number("g.a", obj.pop("a", None)),
                                         _number("g.b", obj.pop("b", None)))
    if kind == "power_singular":
        coef = {"coef": _number("g.coef", obj.pop("coef"))} if "coef" in obj else {}
        return frac1d.power_singular_exterior(_number("g.p", obj.pop("p", None)), **coef)
    raise ValueError(f"unknown exterior kind {kind!r}")


def load_problem(path):
    """``(problem, backend)`` from a spec JSON file: a graph or continuum
    problem and its backend name, ``"graph"`` or ``"frac1d"``.

    Each reader pops the keys it reads.  A key left over, a required key
    missing, a sub-object that is not a JSON object, or a malformed value is a
    ValueError naming it.  Keys left out of ``grid`` and the nest take the
    defaults of ``frac1d.build_grid`` and ``frac1d.default_nest``.  The text
    is read as ``json.load`` reads it, but a compact ``form.J`` comes as an
    array (``_json_spec``).
    """
    with open(path) as fh:
        obj = _json_spec(fh.read())
    if not isinstance(obj, dict):
        raise ValueError(f"a spec must be a JSON object, got {type(obj).__name__}")
    rest = {}

    def popped(key: str) -> dict:
        """Sub-object ``key`` ({} when absent or null), kept to name its unread keys."""
        sub = obj.pop(key, None)
        if not isinstance(sub, (dict, type(None))):
            raise ValueError(f"spec key {key!r} must be a JSON object, got {type(sub).__name__}")
        rest[key] = sub or {}
        return rest[key]

    obj.pop("schema", None)
    backend = obj.pop("backend", "graph")
    if backend not in tuple(SUITES):  # a tuple: an unhashable value is unknown too
        raise ValueError(f"unknown backend {backend!r}")
    f = _nonlinearity_from_dict(popped("f"))
    if backend == "graph":
        form = popped("form")
        arrays = {"m": _vector("form.m", form.pop("m", None)),
                  "J": _matrix("form.J", form.pop("J", None)),
                  "kappa": _vector("form.kappa", form.pop("kappa", None))}
        D, g, mu = _indices("D", obj.pop("D", None)), obj.pop("g", None), obj.pop("mu", None)
        nest = obj.pop("nest", [])
        if not isinstance(nest, list):
            raise ValueError(f"spec key 'nest' must be a list of levels, got {nest!r}")
        nest = tuple(_indices(f"nest[{k}]", v) for k, v in enumerate(nest))
    else:
        alpha = _number("alpha", obj.pop("alpha", None))
        g = _exterior_from_dict(popped("g"))
        atoms = _atoms(popped("mu").pop("atoms", []))
        nu = popped("nu")
        nu = tuple(_number(f"nu.{side}", nu.pop(side, 0.0)) for side in ("plus", "minus"))
        grid = popped("grid")
        grid = {key: _count(f"grid.{key}", grid.pop(key))
                for key in ("order", "n_base", "edge_levels", "out_levels") if key in grid}
        nest = {key: obj.pop(key) for key in ("nest", "nest_levels") if key in obj}
        if len(nest) == 2:
            raise ValueError("spec keys 'nest' and 'nest_levels' exclude each other")
        if "nest_levels" in nest:
            nest = {"nest": frac1d.default_nest(_count("nest_levels", nest["nest_levels"]))}
    unknown = list(obj) + [f"{name}.{key}" for name, sub in rest.items() for key in sub]
    if unknown:
        raise ValueError(f"unknown spec keys: {unknown}")
    b = dict(f.params).get("b")
    if backend == "graph":
        n = arrays["m"].size
        if arrays["J"].shape != (n, n):
            raise ValueError(f"spec key 'form.J' must be {n}x{n}, one row per entry of "
                             f"'form.m', got {'x'.join(map(str, arrays['J'].shape))}")
        if arrays["kappa"].size != n:
            raise ValueError(f"spec key 'form.kappa' must have {n} entries, one per entry of "
                             f"'form.m', got {arrays['kappa'].size}")
        form = form_from_dict(arrays)
        if isinstance(b, tuple) and len(b) != form.n:
            raise ValueError(f"spec key 'f.b' must be one number or {form.n}, one per state, "
                             f"got {len(b)} numbers")
        g = np.zeros(form.n) if g is None else _vector("g", g)
        mu = np.zeros(form.n) if mu is None else _vector("mu", mu)
        return ProblemSpec(form=form, D=D, g=g, mu=mu, f=f, nest=nest), backend
    if isinstance(b, tuple):
        raise ValueError("spec key 'f.b' must be one number on the continuum, got a list")
    prob = frac1d.ContinuumProblem(
        kernels=frac1d.build_kernels(alpha), grid=frac1d.build_grid(alpha, **grid),
        g=g, f=f, mu_atoms=atoms, nu_plus=nu[0], nu_minus=nu[1], **nest)
    return prob, backend


def _entry(value, contract, direction="below") -> dict:
    return {"value": value, "contract": contract,
            "pass": bool(_PASSES[direction](value, contract))}


def _checked(cfg, backend, key, value) -> dict:
    """Entry of ``value`` against contract-table row ``(backend, key)`` or its ``--tol``."""
    default, direction = CONTRACTS[backend, key]
    return _entry(value, float(cfg.tolerances.get(key, default)), direction)


def _band(est, se, exact) -> dict:
    """Monte Carlo agreement: ``|est - exact|`` within three standard errors,
    and at least 1e-9.  A standard error that is not finite leaves the band
    at 1e-9, so an estimate that is not finite fails against a finite one."""
    band = 3.0 * se
    return _entry(abs(est - exact), band if 1e-9 < band < math.inf else 1e-9, "band")


def _suite_verify_graph(cfg, spec, sol, outdir):
    out = {"fixed_point": _checked(cfg, "graph", "fixed_point",
                                   residual_probabilistic(sol.u, spec))}
    out["projective_variational"] = _checked(cfg, "graph", "projective_variational",
                                             verify_projective(sol.u, spec)["variational"])
    for key, val in very_weak_defect(sol.u, spec).items():
        out[f"very_weak_{key}"] = _checked(cfg, "graph", "very_weak", val)
    if not np.any(spec.form.kappa != 0) and spec.f.is_zero:
        for key, val in vd_check(sol.u, spec).items():
            out[f"vd_{key}"] = _checked(cfg, "graph", f"vd_{key}", val)
    return out


def _suite_estimates_graph(cfg, spec, sol, outdir):
    out = {f"apriori_{key}": _checked(cfg, "graph", "apriori", val)
           for key, val in apriori_report(sol.u, spec).items()}
    exact, bound = exit_second_moment(spec.form, spec.D, np.abs(spec.mu))
    slack = float(np.max(exact[spec.D] - bound, initial=-np.inf)) if spec.D.size else 0.0
    out["second_moment_bound"] = _checked(cfg, "graph", "second_moment", slack)
    # a record, not a --tol check: it fails only on a non-finite solution
    out["solution_sup"] = _entry(float(np.max(np.abs(sol.u))), float("inf"))
    return out


def _suite_trace_graph(cfg, spec, sol, outdir):
    # no check: the last level is D, where the exit flux is zero whatever u is
    seq = trace.trace_sequence_graph(sol.u, spec.form, spec.D, spec.nest)
    _write_csv(outdir / "trace.csv", "probe,level,value,extrapolated",
               trace.trace_csv_rows(seq))
    return {}


def _suite_mc_graph(cfg, spec, sol, outdir):
    form, D = spec.form, spec.D
    x, h = int(D[0]), np.ones(form.n)
    pdg, rd1, fk = chain_sim.mc_estimate(("PDg", "RDf", "FK_residual"), form, D, x,
                                         n_paths=int(cfg.paths), seed=cfg.seed, g=spec.g,
                                         h=h, mu=spec.mu, u=sol.u, f=spec.f)
    return {"mc_PDg": _band(*pdg, float(spec.pdg[x])),
            "mc_RD1": _band(*rd1, float(green_apply(form, D, h * form.m)[x])),
            "mc_FK_residual": _band(*fk, 0.0)}


def _suite_verify_frac(cfg, prob, sol, outdir):
    out = {"fixed_point": _checked(cfg, "frac1d", "fixed_point",
                                   frac1d.fixed_point_residual(sol))}
    last = float(np.max(frac1d.projective_exhaustion_defects(prob, sol)[-1]))
    out["projective_exhaustion"] = _checked(cfg, "frac1d", "projective_exhaustion", last)
    return out


def _suite_trace_frac(cfg, prob, sol, outdir):
    u_fn = frac1d.continuum_callable(prob, sol)
    # probes near the boundary only enter the exhaustion after a few levels,
    # so the trace suite extends the same nest construction to 16 levels
    radii = prob.nest
    if len(radii) < 16:
        radii = frac1d.default_nest(16)
    seq = trace.trace_sequence_frac(prob.kernels, u_fn, radii)
    _write_csv(outdir / "trace.csv", "probe,level,value,extrapolated",
               trace.trace_csv_rows(seq))
    # the trace of u is its boundary measure: the limits tend to M|nu|, 0 without nu
    limit = (abs(prob.nu_plus) * frac1d.martin_kernel(prob.kernels, seq.probes, +1)
             + abs(prob.nu_minus) * frac1d.martin_kernel(prob.kernels, seq.probes, -1))
    worst = float(np.max(np.abs(seq.extrapolated - limit)))
    return {"trace_extrapolated": _checked(cfg, "frac1d", "trace", worst)}


def _suite_wos_frac(cfg, prob, sol, outdir):
    # one walk per start point: the exit law is tested on every walk, the
    # mean exit time read from 0.3 and the FK residual from 0.2
    k, n_paths = prob.kernels, int(cfg.paths)
    [(_, p_far)] = wos.wos_estimate(("exit_chi2",), k, -0.7, n_paths=n_paths, seed=cfg.seed + 2)
    (_, p_mean), mean = wos.wos_estimate(("exit_chi2", "mean_exit_time"), k, 0.3,
                                         n_paths=n_paths, seed=cfg.seed + 7)
    # E_x tau of (-1, 1) in closed form
    exact = k.exit_coef * (1.0 - 0.3 ** 2) ** (k.alpha / 2.0)
    out = {"wos_mean_exit": _band(*mean, exact)}
    if not prob.f.is_zero and not prob.mu_atoms:
        (_, p_fk), fk = wos.wos_estimate(("exit_chi2", "FK_residual"), k, 0.2,
                                         n_paths=n_paths, seed=cfg.seed + 8, g=prob.g,
                                         u_fn=frac1d.continuum_callable(prob, sol), f=prob.f)
        # E g(exit) + R_D f(u) - u at the start is -(M nu), zero without nu
        out["wos_fk_residual"] = _band(*fk, -float(prob.martin_part([0.2])[0]))
    else:
        [(_, p_fk)] = wos.wos_estimate(("exit_chi2",), k, 0.2, n_paths=n_paths,
                                       seed=cfg.seed + 8)
    out["wos_exit_chi2_pmin"] = _checked(cfg, "frac1d", "wos_exit_chi2",
                                         min(p_far, p_mean, p_fk))
    return out


def _suite_estimates_frac(cfg, prob, sol, outdir):
    # a record, not a --tol check: the ratio is >= 0, so it fails only when not finite
    return {"weighted_ratio": _entry(frac1d.example77_report(prob, sol)["ratio"],
                                     float("inf"))}


def _dump_kernels(problem, outdir: Path) -> None:
    """Kernel/grid CSV exports for downstream plotting."""
    if isinstance(problem, ProblemSpec):
        P = poisson_kernel(problem.form, problem.D)
        _write_csv(outdir / "poisson_kernel.csv", ",".join(map(str, range(P.shape[1]))),
                   [tuple(float(v) for v in row) for row in P])
        G = green_operator(problem.form, problem.D)
        _write_csv(outdir / "green_operator.csv", ",".join(str(int(i)) for i in problem.D),
                   [tuple(float(v) for v in row) for row in G])
        return
    grid = problem.grid
    _write_csv(outdir / "grid.csv", "region,node,weight",
               [("interior", float(x), float(w)) for x, w in
                zip(grid.interior_x, grid.interior_w)]
               + [("exterior", float(x), float(w)) for x, w in
                  zip(grid.exterior_x, grid.exterior_w)])
    xs = grid.interior_x[:: max(1, grid.interior_x.size // 64)]
    rows = []
    for x in xs:
        for y in xs:
            if x != y:
                rows.append((float(x), float(y), float(problem.kernels.green(x, y))))
    _write_csv(outdir / "green_samples.csv", "x,y,G", rows)


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    problem, backend = load_problem(config.spec_path)
    stray = sorted(set(config.suites or ()) - set(SUITES[backend]))
    stray += sorted(set(config.tolerances) - {key for b, key in CONTRACTS if b == backend})
    if stray:
        raise ValueError(f"suites or --tol keys {stray} do not apply to backend {backend!r}")
    suites = [s for s in SUITES[backend] if config.suites is None or s in config.suites]
    sol = solve(problem)
    outdir = config.out_dir
    if config.dump_kernels:
        _dump_kernels(problem, outdir)
    if backend == "graph":
        rows = [(int(i), float(v)) for i, v in enumerate(sol.u)]
        _write_csv(outdir / "solution.csv", "state,u", rows)
    else:
        rows = [(float(x), float(v)) for x, v in zip(sol.meta["x"], sol.u)]
        _write_csv(outdir / "solution.csv", "x,u", rows)

    results: dict = {}
    for s in suites:
        # looked up at call time, so a wrapper set on this module is the one run
        results.update(globals()[f"_suite_{s}_{_SUFFIX[backend]}"](config, problem, sol, outdir))

    ok = all(entry["pass"] for entry in results.values())
    payload = {"schema": SCHEMA, "pass": ok,
               "solver_converged": bool(sol.converged), "results": results}
    _write_json(outdir / "residuals.json", payload)
    mc_entries = {k: v for k, v in results.items() if k.startswith(("mc_", "wos_"))}
    _write_json(outdir / "mc.json", {"schema": SCHEMA, "results": mc_entries})
    return 0 if ok and sol.converged else 1


def generate_random_suite(seed: int, count: int, out_dir) -> list:
    """Write ``count`` ordered random graph-problem pairs; returns the paths."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(count):
        s1, s2 = random_ordered_pair(rng)
        for tag, s in (("a", s1), ("b", s2)):
            obj = {
                "schema": SCHEMA,
                "backend": "graph",
                "form": form_to_dict(s.form),
                "D": [int(i) for i in s.D],
                "g": s.g.tolist(),
                "mu": s.mu.tolist(),
                "f": _nonlinearity_to_dict(s.f),
            }
            p = out / f"random_{seed}_{k:03d}{tag}.json"
            _atomic_write(p, json.dumps(obj, sort_keys=True) + "\n")
            paths.append(p)
    return paths


def _nonlinearity_to_dict(f) -> dict:
    if not f.params:
        raise ValueError(f"cannot serialize nonlinearity {f.name!r}")
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in f.params}


def _parse_tols(items) -> dict:
    """``KEY=VAL`` arguments of ``--tol`` as a dict of floats."""
    tols = {}
    for item in items:
        key, sep, val = item.partition("=")
        try:
            number = float(val)
        except ValueError:
            number = None
        if not (key and sep) or number is None:
            raise ValueError(f"--tol expects KEY=NUMBER, got {item!r}")
        tols[key] = number
    return tols


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dirichlet-lab",
                                     description="Nonlocal Dirichlet-problem laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="solve a spec file and run verification suites")
    runp.add_argument("spec", type=Path)
    runp.add_argument("--out", type=Path, default=Path("out"))
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--suite", action="append", default=None,
                      help="suite name (repeatable); default: all applicable")
    runp.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                      help="contract override; keys: the rows of cli.CONTRACTS")
    runp.add_argument("--paths", type=float, default=100000, metavar="N",
                      help="paths per Monte Carlo oracle (finite, >= 100)")
    runp.add_argument("--dump-kernels", action="store_true",
                      help="export kernel matrices / grid samples as CSV")
    genp = sub.add_parser("gen", help="generate random graph problem pairs")
    genp.add_argument("--seed", type=int, required=True)
    genp.add_argument("--count", type=int, required=True)
    genp.add_argument("--out", type=Path, default=Path("generated"))
    args = parser.parse_args(argv)
    if args.command == "gen":
        paths = generate_random_suite(args.seed, args.count, args.out)
        print("\n".join(str(p) for p in paths))
        return 0
    try:
        config = RunConfig(spec_path=args.spec, out_dir=args.out,
                           suites=tuple(args.suite) if args.suite else None,
                           seed=args.seed, tolerances=_parse_tols(args.tol),
                           paths=args.paths, dump_kernels=args.dump_kernels)
        status = run(config)
    except (OSError, ValueError) as exc:
        print(f"error: {args.spec}: {exc}")
        return 2
    print(f"{'PASS' if status == 0 else 'FAIL'}: results in {config.out_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
