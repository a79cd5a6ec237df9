"""Run one benchmark item in a fresh interpreter and print what it measured.

    python3 perfbench/worker.py ITEM [--trace FOLDED_FILE | --setup-only]

ITEM is a scenario command line such as ``opt-taub1 --n 4 --q 2``, or a
library item: ``@rational-api`` (see ``workloads.py``) or ``@import``, which
only imports.  The last line of standard output is one JSON object:

- ``first_call``: ``time.monotonic()`` just before the first scenario or
  library call, so the parent can take set-up time from the moment it
  started this process;
- ``wall_s``: time from that call to the last rendered byte;
- ``maxrss_kb``: this process's ``ru_maxrss``;
- ``outputs``: a SHA-256 digest of every rendered report (``json``,
  ``table``) or of every library result (one per operation);
- ``wrong``: library operations whose result differs from the expected value;
- ``subsets``: subsets an exhaustive search enumerated (from the report);
- ``layers``: per-layer trace metrics, only with ``--trace``.

With ``--trace`` the public functions of kronbrist are wrapped from outside
(``tracing.py``) and the call tree is written to FOLDED_FILE.  With
``--setup-only`` the worker stops at the first call and prints only
``first_call``.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kronbrist as kb  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_item(args: list) -> dict:
    """Keyword arguments of ``default_config`` for a scenario command line."""
    kwargs = {}
    i = 1
    while i < len(args):
        flag = args[i]
        if flag == "--rational":
            kwargs["field"] = kb.FieldSpec.rationals()
            i += 1
            continue
        value = args[i + 1]
        if flag == "--n":
            kwargs["n"] = int(value)
        elif flag == "--q":
            kwargs["field"] = kb.FieldSpec.gf(int(value))
        elif flag == "--tmax":
            kwargs["t_max"] = int(value)
        elif flag == "--seed":
            kwargs["seed"] = int(value)
        elif flag == "--module":
            kwargs["module_path"] = value
            kwargs["module_text"] = (ROOT / value).read_text(encoding="utf-8")
        else:
            raise ValueError(f"unknown item flag {flag!r}")
        i += 2
    return kwargs


def subsets_enumerated(report_dict: dict) -> int:
    """Subsets the report says its exhaustive searches tested."""
    total = 0
    for check in report_dict["checks"]:
        if check["name"] == "subsets-tested":
            total += check["computed"]
        details = check.get("details", {})
        total += details.get("subsets_tested", 0) + details.get("subsets", 0)
    return total


def prepare(item: str):
    """Parse the item and build its config; return the call that runs it.

    The call returns everything the item renders: the JSON and table
    reports, or the (name, expected, computed) triples of a library item.
    """
    if item.startswith("@"):
        return LIBRARY_ITEMS[item]
    args = item.split()
    cfg = kb.default_config(args[0], **parse_item(args))

    def run():
        report = kb.run_scenario(cfg)
        return report.to_json(), report.to_table()
    return run


def rational_api_ops():
    """(name, expected, computed) for each library call of ``@rational-api``."""
    n = 3
    field = kb.FieldSpec.rationals()
    b0 = [kb.bristle(p) for p in kb.canonical_set("B0", n, field)]
    preinj = []
    for t in range(6):
        preinj.append(kb.preinjective(n, t, field))
        start = (1, 0) if t % 2 == 0 else (n, 1)
        yield f"dims-I{t}", list(kb.coxeter_apply(start, n, t // 2)), list(preinj[t].dims)
    for t in range(5):
        yield f"b0-generates-I{t}", True, kb.is_generated_by(b0, preinj[t])
    for t in range(4):
        for i, b in enumerate(b0):
            yield (f"ext1-b{i}-I{t}", [0, 0],
                   [kb.ext1_dim(b, preinj[t]), kb.ext1_dim_via_resolution(b, preinj[t])])


LIBRARY_ITEMS = {
    "@rational-api": lambda: list(rational_api_ops()),
    "@import": lambda: [],  # imports only: warms the bytecode and file caches
}


def check_outputs(item: str, produced) -> dict:
    if item.startswith("@"):
        return {
            "outputs": {name: digest(json.dumps(got)) for name, _, got in produced},
            "wrong": [name for name, expected, got in produced if got != expected],
            "subsets": 0,
        }
    rendered_json, rendered_table = produced
    return {
        "outputs": {"json": digest(rendered_json), "table": digest(rendered_table)},
        "wrong": [],
        "subsets": subsets_enumerated(json.loads(rendered_json)),
    }


def run_item(item: str) -> dict:
    run = prepare(item)
    first_call = time.monotonic()
    produced = run()
    last_byte = time.monotonic()
    return {"first_call": first_call, "wall_s": last_byte - first_call,
            **check_outputs(item, produced)}


def main(argv: list) -> int:
    item, option = argv[1], argv[2:3]
    if option == ["--setup-only"]:
        prepare(item)
        print(json.dumps({"first_call": time.monotonic()}))
        return 0
    tracer = None
    if option == ["--trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_item(item)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["numpy"] = numpy.__version__
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_folded(Path(argv[3]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
