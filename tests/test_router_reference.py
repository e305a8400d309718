"""Rendezvous routing against its reference: a max over ``rendezvous_score``.

``RendezvousRouter`` scores a key against every shard by encoding the key
once and hashing it with each shard's kept ``b"|shard:<id>"`` suffix,
comparing the 8-byte digests as bytes.  The judge is the definition the
router had before: the shard id with the largest ``rendezvous_score(key,
shard_id)``, the first of the topology's insertion order on a tie.  The
property draws keys (tenant-namespaced and arbitrary unicode) and shard-id
sets, adds shards between reads, and asserts ``shard_for``,
``assign`` and ``moves_for_new_shard`` equal the judge's answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from builders import router_over
from repro.cluster.router import rendezvous_score


def reference_owner(key, shard_ids):
    return max(shard_ids, key=lambda shard_id: rendezvous_score(key, shard_id))


def reference_moves(keys, shard_ids, new_shard_id):
    return [
        key
        for key in keys
        if rendezvous_score(key, new_shard_id)
        > rendezvous_score(key, reference_owner(key, shard_ids))
    ]


KEYS = st.lists(
    st.one_of(
        st.builds(lambda t, q: f"t{t}/q{q}", st.integers(0, 5), st.integers(0, 10_000)),
        st.text(min_size=0, max_size=12),
    ),
    min_size=1,
    max_size=40,
)
SHARD_IDS = st.lists(
    st.one_of(st.integers(0, 16), st.integers(0, 2**20)), min_size=1, max_size=8, unique=True
)


@settings(max_examples=80, deadline=None)
@given(keys=KEYS, shard_ids=SHARD_IDS, data=st.data())
def test_assignments_and_moves_match_the_reference(keys, shard_ids, data):
    router = router_over(shard_ids)
    topology = list(shard_ids)
    for _ in range(data.draw(st.integers(1, 4))):
        want = [reference_owner(key, topology) for key in keys]
        assert router.assign(keys).tolist() == want
        assert [router.shard_for(key) for key in keys] == want  # cached answers
        new_shard_id = data.draw(st.integers(0, 2**20).filter(lambda s: s not in topology))
        assert router.moves_for_new_shard(keys, new_shard_id) == reference_moves(
            keys, topology, new_shard_id
        )
        router.add_shard(new_shard_id)
        topology.append(new_shard_id)
    assert router.shard_ids == topology
