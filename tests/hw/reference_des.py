"""Reference DES evaluation: the original dict-based Kahn loop.

A test oracle for :meth:`repro.hw.des.Simulator.run`. It walks the same
op DAG with per-op predecessor/successor dicts and an O(n) ``pop(0)``
ready queue — the plainest possible statement of the schedule
semantics. Production code carries only the index-based loop; the
equivalence tests run both on the same graphs and demand identical
floats, record order and thunk order.
"""

from __future__ import annotations

from repro.hw.des import Op, OpRecord, Resource


def reference_run(
    resources: list[Resource], execute_thunks: bool = True
) -> list[OpRecord]:
    """Schedule every issued op exactly as ``Simulator.run`` must."""
    ops: list[Op] = [op for r in resources for op in r.ops]
    # Effective predecessor sets: explicit deps + previous op in queue.
    preds: dict[Op, list[Op]] = {}
    for r in resources:
        for i, op in enumerate(r.ops):
            p = list(op.deps)
            if i > 0:
                p.append(r.ops[i - 1])
            preds[op] = p
    for op in ops:
        for d in op.deps:
            if d not in preds:
                raise RuntimeError(
                    f"op {op.label!r} depends on {d.label!r}, which is not "
                    "issued on any resource of this simulator"
                )

    indeg = {op: len(preds[op]) for op in ops}
    succs: dict[Op, list[Op]] = {op: [] for op in ops}
    for op, ps in preds.items():
        for p in ps:
            succs[p].append(op)

    # Kahn's algorithm; FIFO keeps evaluation deterministic.
    ready = [op for op in ops if indeg[op] == 0]
    done = 0
    while ready:
        op = ready.pop(0)
        t0 = max((p.end for p in preds[op]), default=0.0)
        op.start = t0
        op.end = t0 + op.duration
        if execute_thunks and op.thunk is not None:
            try:
                op.result = op.thunk(op)
            except Exception as exc:
                if not op.fail_ok:
                    raise
                op.error = exc
        done += 1
        for s in succs[op]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if done != len(ops):
        stuck = [op.label for op in ops if op.start is None][:8]
        raise RuntimeError(f"dependency cycle involving ops: {stuck}")

    records = [
        OpRecord(op.label, op.resource.name, op.category, op.start, op.end)
        for op in ops
    ]
    records.sort(key=lambda rec: (rec.start, rec.resource, rec.label))
    return records
