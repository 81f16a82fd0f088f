"""Per-call ``tracemalloc`` peaks of one in-process ``surfspec run``.

    python3 tools/peaks.py CONFIG

CONFIG is a run config file.  ``surfspec.cli.run`` runs it once in this
process, with ``tracemalloc`` on and each function of ``STAGES`` wrapped
at its name in ``surfspec.verify``, where the level cache calls it.  None
of them calls another, so their peaks do not nest.  Every call prints one
JSON line: the function; ``vertices``, of the mesh the call builds or
reads, or ``dim``, the dimension of the pencil a ``solve_smallest``
takes; and three byte counts, ``held`` (traced on entry), ``peak`` (the
traced peak of the call above ``held``) and ``kept`` (traced on return
above ``held``).  Cyclic garbage is collected before each entry, so a
call frees nothing it did not allocate.  The wrapped names are restored
on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import tracemalloc
from pathlib import Path

from surfspec import cli, verify

# each stage's size: the mesh it builds or reads, or its pencil's dimension
STAGES = {
    "refine": lambda args, out: ("vertices", out.n_vertices),
    "assemble_scalar": lambda args, out: ("vertices", args[0].n_vertices),
    "apply_dirichlet": lambda args, out: ("vertices", args[0].mesh.n_vertices),
    "assemble_oneform": lambda args, out: ("vertices", args[0].mesh.n_vertices),
    "dirichlet_form_quadrature":
        lambda args, out: ("vertices", args[0].scalar.mesh.n_vertices),
    "solve_smallest": lambda args, out: ("dim", args[0].shape[0]),
    "solve_oneform": lambda args, out: ("vertices", args[0].scalar.mesh.n_vertices),
}


def _traced(name, function, size, records):
    def wrapper(*args, **kwargs):
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = function(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        key, value = size(args, out)
        record = {"function": name, key: int(value), "held": held,
                  "peak": peak - held, "kept": current - held}
        records.append(record)
        print(json.dumps(record), flush=True)
        return out

    return wrapper


def trace(config: dict) -> list:
    """Run ``config`` once with every stage traced; the records in call
    order."""
    records, originals = [], {name: getattr(verify, name) for name in STAGES}
    tracemalloc.start()
    try:
        for name, size in STAGES.items():
            setattr(verify, name, _traced(name, originals[name], size, records))
        cli.run(config)
    finally:
        for name, function in originals.items():
            setattr(verify, name, function)
        tracemalloc.stop()
    return records


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    trace(json.loads(parser.parse_args(argv).config.read_text()))


if __name__ == "__main__":
    main()
