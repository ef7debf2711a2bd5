"""Workload that shifts mid-run (Fig. 5/6 scenario, §5.3.2).

A general-purpose population in which, at ``shift_time_s``, a fraction of
the clients "change their local region of activity and create new files in
portions of the hierarchy served by a single MDS".  Migrated clients move
their home to the victim subtree and switch to a create-heavy op mix; a
static subtree partition saturates the victim's MDS while the dynamic
partition re-delegates and recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..mds import MdsRequest, OpType
from ..namespace import Namespace
from ..namespace.path import Path
from .client import Client
from .general import GeneralWorkload, GeneralWorkloadSpec
from .opmix import OpMix


#: post-shift mix: migrated clients mostly create new files and revisit
#: their own recent creations (§5.3.2)
SHIFTED_MIX: Dict[OpType, float] = {
    OpType.CREATE: 0.35,
    OpType.OPEN: 0.20,
    OpType.CLOSE: 0.10,
    OpType.STAT: 0.15,
    OpType.SETATTR: 0.15,
    OpType.READDIR: 0.05,
}


@dataclass
class ShiftSpec:
    """When and how the workload shifts.

    ``victim_roots`` is the "new portion of the hierarchy served by a
    single MDS" (§5.3.2): typically every user subtree one MDS is initially
    authoritative for, so a static partition concentrates all migrated
    clients on that node while a dynamic partition can re-delegate the
    trees individually.
    """

    shift_time_s: float = 10.0
    migrate_fraction: float = 0.5
    victim_roots: Optional[List[Path]] = None  # default: first user root


class ShiftingWorkload(GeneralWorkload):
    """General workload whose clients partially migrate at a set time."""

    def __init__(self, ns: Namespace, user_roots: List[Path],
                 shift: ShiftSpec = ShiftSpec(),
                 spec: GeneralWorkloadSpec = GeneralWorkloadSpec()) -> None:
        super().__init__(ns, user_roots, spec)
        self.shift = shift
        self.victim_roots = shift.victim_roots or [user_roots[0]]
        self._shifted_mix = OpMix(dict(SHIFTED_MIX))

    def will_migrate(self, client: Client) -> bool:
        """Deterministic per-client choice of who migrates."""
        scrambled = (client.client_id * 2654435761) % (1 << 32)
        return scrambled / (1 << 32) < self.shift.migrate_fraction

    def next_op(self, client: Client) -> Optional[MdsRequest]:
        state = self._state(client)
        now = client.env.now
        if (now >= self.shift.shift_time_s and self.will_migrate(client)
                and not state.get("migrated")):
            state["migrated"] = True
            new_home = self.victim_roots[
                client.client_id % len(self.victim_roots)]
            state["home"] = new_home
            state["cwd"] = new_home
        if state.get("migrated"):
            return self._migrated_op(client, state)
        return super().next_op(client)

    def _migrated_op(self, client: Client,
                     state: dict) -> Optional[MdsRequest]:
        """Post-shift behaviour: create new files, revisit own creations.

        §5.3.2's migrated clients "create new files" in the victim region.
        Each first makes itself a working directory there and then fills
        it, so its active set is the files it is writing — the hot node's
        bottleneck is request volume (CPU/journal/queues), not old-data
        cache capacity, and re-delegating the victim's subtrees genuinely
        relieves it.
        """
        from ..namespace import path as pathmod

        rng = client.rng
        if "mig_dir" not in state:
            # first migrated op: carve out a private working directory
            state["mig_dir"] = pathmod.join(
                state["home"], f"mig{client.client_id}")
            return client.make_request(OpType.MKDIR, state["mig_dir"],
                                       dir_hint=True)
        # Exploration of the (to this client, unknown) victim region: these
        # requests are misdirected until the client learns the partition —
        # the forwarding spike of Fig. 6 — and go stale again when the
        # dynamic balancer migrates the trees.
        if rng.random() < 0.3:
            some_dir = self._random_dir_under(state["home"], rng)
            target = self._pick_file(some_dir, rng)
            if target is not None:
                op = OpType.OPEN if rng.random() < 0.6 else OpType.STAT
                return client.make_request(op, target)
        cwd = state["mig_dir"]
        op = self._shifted_mix.sample(rng)
        last_created = state.get("last_created")
        if op is OpType.READDIR:
            return client.make_request(op, cwd, dir_hint=True)
        if op is OpType.CLOSE:
            request = self._close_oldest(state, client)
            if request is not None:
                return request
            op = OpType.STAT
        if op in (OpType.OPEN, OpType.STAT, OpType.SETATTR) \
                and last_created is not None:
            if op is OpType.OPEN:
                stack = state.setdefault("open_stack", [])
                if len(stack) >= self.spec.max_open_files:
                    return self._close_oldest(state, client)
                stack.append(last_created)
            kw = {}
            if op is OpType.SETATTR:
                kw["size"] = rng.randrange(1, 1 << 24)
            return client.make_request(op, last_created, **kw)
        state["created"] += 1
        new_path = pathmod.join(
            cwd, f"n{client.client_id}_{state['created']}.dat")
        state["last_created"] = new_path
        return client.make_request(OpType.CREATE, new_path,
                                   size=rng.randrange(1, 1 << 24))
