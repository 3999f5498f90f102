"""Trace-file format shared by tools/report.py.

A trace file written with `--trace-file` holds one JSON object per line
(see OBSERVABILITY.md for the event schemas). A bench process that builds
several simulated machines in sequence shares one file; each machine's
events carry a distinct "m" tag. Traces written by a single machine have
no "m" field; those group under machine 0.

The phase list, the byte-provenance categories, the one trace loader and
the exact phase-partition check live here, so the profile, blame and tail
reports and the committed baselines all read them from one place.
"""
import json
import sys
from collections import defaultdict

# Must match kPhaseNames in src/sim/profiler.cc.
PHASES = [
    "run",
    "runq_wait",
    "disk_read_wait",
    "disk_write_wait",
    "lock_wait",
    "log_wait",
    "cleaner_stall",
]

# Byte-provenance categories; must match LogByteCatName in
# src/sim/log_econ.h (and the logecon.bytes.* metric names).
LOGECON_CATS = [
    "user_data",
    "wal",
    "inode",
    "imap",
    "summary",
    "checkpoint",
    "cleaner",
    "ffs",
]


def machine_of(ev):
    """Machine tag of an event (0 for single-machine traces)."""
    return ev.get("m", 0)


def read_events(path):
    """Yields (lineno, event) for every line; exits non-zero on bad JSON."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: not JSON: {e}")
            yield lineno, ev


def phase_error(phases, total, name="elapsed_us"):
    """A message unless the profiler phases sum exactly to `total`.

    The virtual-clock profiler partitions each transaction span into
    phases with no gaps and no overlap, so the sum is exact by
    construction (integer microseconds, no epsilon). A mismatch is a
    profiler bug, never measurement noise. `phases` is a span event, a
    tail exemplar's `phases` object or a summary's windowed phase totals.
    """
    phase_sum = sum(phases.get(p, 0) for p in PHASES)
    if phase_sum != total:
        return f"phases sum to {phase_sum} but {name} is {total} — profiler bug"
    return None


def load(path):
    """Returns ({machine: [txn_profile]}, {machine: [wait_edge]}).

    Dies on a span whose phases do not partition its elapsed time.
    """
    spans = defaultdict(list)
    edges = defaultdict(list)
    for lineno, ev in read_events(path):
        if ev.get("ev") == "txn_profile":
            err = phase_error(ev, ev["elapsed_us"])
            if err:
                sys.exit(f"{path}:{lineno}: {err}")
            spans[machine_of(ev)].append(ev)
        elif ev.get("ev") == "wait_edge":
            edges[machine_of(ev)].append(ev)
    return spans, edges


def block_totals(events):
    """{machine: [charged, written]} blocks over a trace's events.

    `charged` sums the logecon `bytes` events of every category;
    `written` sums the disk `io_submit` write events. io_submit (not
    io_begin) is the submit-time twin of the disk's blocks_written
    counter, which LogEcon charges against: a write still queued when the
    simulation stops is counted and charged but never reaches service, so
    io_begin would under-count it. Both sides skip RawWrite (untimed mkfs
    I/O), so on a healthy trace the two agree block for block.
    """
    totals = defaultdict(lambda: [0, 0])
    for ev in events:
        if ev.get("cat") == "logecon" and ev.get("ev") == "bytes":
            totals[machine_of(ev)][0] += ev["blocks"]
        elif (ev.get("cat") == "disk" and ev.get("ev") == "io_submit"
              and ev.get("op") == "write"):
            totals[machine_of(ev)][1] += ev["nblocks"]
    return totals


def print_table(rows, indent="  ", out=sys.stdout):
    """Left-justified column table; first row is the header."""
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        out.write(indent + " ".join(c.ljust(w) for c, w in zip(r, widths))
                  .rstrip() + "\n")
