"""Model test of the stub table (paper Sec. 2.2): random acquire /
release / release_all sequences on :class:`ProxyTable` against a
plain-dict reference.

The table's entry for a (holder, target) pair *is* the pair's shared
:class:`StubTag`; the reference keeps the same facts in three dicts and
must agree with it after every step: live count per target, generation
numbers, which release reports the tag dead (exactly the last one of
its generation), that a release of a retired generation never touches
the generation that replaced it, and that a second release raises.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RuntimeModelError
from repro.runtime.proxy import ProxyTable, RemoteRef

TARGETS = ["t0", "t1", "t2"]

#: ("acquire", target) | ("release", n) — the n-th stub ever acquired
#: (modulo how many there are), whatever its state | ("release_all",).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.sampled_from(TARGETS)),
        st.tuples(st.just("release"), st.integers(min_value=0)),
        st.tuples(st.just("release_all")),
    ),
    max_size=60,
)


@given(operations)
def test_proxy_table_matches_plain_dict_model(ops):
    table = ProxyTable("holder")
    minted = {}    # target -> generations minted so far
    current = {}   # target -> the live generation (insertion-ordered)
    live = {}      # target -> live stubs of the live generation
    tags = {}      # (target, generation) -> the shared tag
    stubs = []     # [proxy, target, generation, released]
    for op in ops:
        if op[0] == "acquire":
            target = op[1]
            proxy = table.acquire(RemoteRef(target, "n0"))
            if target not in current:
                minted[target] = minted.get(target, 0) + 1
                current[target] = minted[target]
                live[target] = 0
            live[target] += 1
            generation = current[target]
            assert proxy.activity_id == proxy.tag.target == target
            assert proxy.tag.holder == "holder"
            assert proxy.tag.generation == generation
            assert tags.setdefault((target, generation), proxy.tag) is proxy.tag
            stubs.append([proxy, target, generation, False])
        elif op[0] == "release":
            if not stubs:
                continue
            stub = stubs[op[1] % len(stubs)]
            proxy, target, generation, released = stub
            if released:
                with pytest.raises(RuntimeModelError):
                    table.release(proxy)
            else:
                stub[3] = True
                last = False
                if current.get(target) == generation:
                    live[target] -= 1
                    if live[target] == 0:
                        last = True
                        del current[target], live[target]
                assert table.release(proxy) is last
            assert proxy.released
        else:
            dead = table.release_all()
            assert [(t.target, t.generation) for t in dead] == list(
                current.items()
            )
            assert all(tags[(t.target, t.generation)] is t for t in dead)
            current.clear()
            live.clear()
        assert table.targets() == list(current)
        for target in TARGETS:
            assert table.holds(target) == (target in current)
            assert table.live_count(target) == live.get(target, 0)
            assert (table.ref_for(target) is not None) == (target in current)
