"""Correctness oracle of the benchmark.

Every timed op is checked against the ``interp`` backend (the tree-walking
reference interpreter) run on the same compiled graph for the same
iteration count.  Running the interpreter inside a timed run would cost
seconds per op, so ``make_reference.py`` runs it once and stores a digest
of each reference result in ``reference.json``; timed runs compare
digests.  The interpreter is never the engine under test, so a defect in
the vector backend, the multicore runtime or the serving wire shows up as
a mismatch.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from typing import Any, Dict

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The configuration every workload runs and every reference was made with.
MACHINE = "core-i7-sse4"
PIPELINE = "full"
REFERENCE_BACKEND = "interp"


def ref_key(app: str, iterations: int) -> str:
    return f"{app}@{iterations}"


def _canonical(values: Any) -> bytes:
    """Type-exact byte image of one output stream.

    A list of Python floats and a float64 ndarray of the same values give
    the same bytes (likewise ints and int64), so a commit that lets
    outputs leave ``execute`` as arrays is still compared exactly.  Any
    other mix (ints beside floats, bools, numpy scalars in a list) falls
    back to ``repr``, which keeps the Python type of every element.
    """
    dtype = getattr(values, "dtype", None)
    if dtype is not None:
        if dtype.kind in "fi" and dtype.itemsize == 8 and len(values):
            return (b"d" if dtype.kind == "f" else b"q") + values.tobytes()
        values = values.tolist()
    if not values:
        return b"e"
    types = set(map(type, values))
    if types == {float}:
        return b"d" + array("d", values).tobytes()
    if types == {int}:
        try:
            return b"q" + array("q", values).tobytes()
        except OverflowError:
            pass
    return b"r" + repr(list(values)).encode()


def digest(outputs: Any, init_outputs: Any) -> str:
    """Digest of a run's steady and init outputs."""
    h = hashlib.blake2b(digest_size=16)
    for values in (outputs, init_outputs):
        data = _canonical(values)
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


class ReferenceError(RuntimeError):
    """The reference file is missing, foreign, or lacks a needed key."""


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, str]:
    """``ref_key -> digest`` of the interp reference results."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ReferenceError(f"cannot read reference {path}: {exc}")
    made_with = (data.get("machine"), data.get("pipeline"),
                 data.get("backend"))
    if made_with != (MACHINE, PIPELINE, REFERENCE_BACKEND):
        raise ReferenceError(
            f"reference {path} was made with {made_with}, expected "
            f"{(MACHINE, PIPELINE, REFERENCE_BACKEND)}")
    return dict(data["digests"])


def require(reference: Dict[str, str], app: str, iterations: int) -> str:
    key = ref_key(app, iterations)
    try:
        return reference[key]
    except KeyError:
        raise ReferenceError(
            f"no reference digest for {key}; regenerate it with "
            f"python3 perfbench/make_reference.py") from None
