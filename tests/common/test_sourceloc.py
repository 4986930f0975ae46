"""Program-counter interning."""

import sys
import threading

from repro.common.sourceloc import GLOBAL_PCS, PCRegistry, SourceLoc, pc_of


def test_interning_is_stable():
    reg = PCRegistry()
    loc = SourceLoc("a.c", 10, "f")
    pc1 = reg.pc(loc)
    pc2 = reg.pc(SourceLoc("a.c", 10, "f"))
    assert pc1 == pc2
    assert reg.loc(pc1) == loc


def test_distinct_locations_get_distinct_pcs():
    reg = PCRegistry()
    a = reg.pc(SourceLoc("a.c", 10))
    b = reg.pc(SourceLoc("a.c", 11))
    c = reg.pc(SourceLoc("b.c", 10))
    assert len({a, b, c}) == 3
    assert len(reg) == 3


def test_concurrent_interning_agrees_on_one_pc_per_site():
    """Hits skip the lock; racing first uses must still intern each site
    once and hand every thread the same PC."""
    reg = PCRegistry()
    sites = [SourceLoc("race.c", line) for line in range(64)]
    workers = 8
    seen = [None] * workers
    start = threading.Barrier(workers)

    def intern_all(slot):
        start.wait(timeout=10)
        seen[slot] = [[reg.pc(loc) for loc in sites] for _ in range(20)]

    threads = [
        threading.Thread(target=intern_all, args=(slot,))
        for slot in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    pcs = seen[0][0]
    assert all(round_ == pcs for rounds in seen for round_ in rounds)
    assert len(set(pcs)) == len(reg) == len(sites)
    assert [reg.loc(pc) for pc in pcs] == sites


def test_unknown_pc_resolves_to_marker():
    reg = PCRegistry()
    assert reg.loc(0xDEAD).file == "<unknown>"


def test_global_helper():
    pc = pc_of("file.c", 5, "g")
    assert GLOBAL_PCS.loc(pc) == SourceLoc("file.c", 5, "g")


def test_str_formats():
    assert str(SourceLoc("x.c", 3, "h")) == "x.c:3 (h)"
    assert str(SourceLoc("x.c", 3)) == "x.c:3"
