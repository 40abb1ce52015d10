"""Golden SHA-256 digests of packed scheme blobs.

The bytes :func:`~repro.core.persistence.pack_scheme` emits are a wire
format: stores, journals and peers hold them.  Each entry below pins, for
one buildable scheme under II ∧ α or II ∧ β on a seeded ``G(n, 1/2)``,
the digest of the packed blob and the digest of every function that the
restored scheme re-encodes.  A change to the bit codec, a construction or
an encoding that moves a single bit of either fails here, so the format
can only change on purpose, with these values updated alongside.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core import available_schemes, build_scheme
from repro.core.persistence import pack_scheme, restore_scheme
from repro.graphs import LabeledGraph, gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel

# (scheme, labeling, n) -> (sha256(blob), sha256 over restored functions).
# The graph for size n is gnp_random_graph(n, seed=n).
GOLDEN_DIGESTS = {
    ("full-information", "ALPHA", 64): (
        "6e265d939b1656d1d70823f018b71a96ebc384590d4b28df9b4eb92295e519a9",
        "c0237859ae91ee8daab8cb8729f0852d913635e7b245c492a4447e3349f95ca1",
    ),
    ("full-information", "ALPHA", 97): (
        "e99fe9c96cc0bee0f274ed70adffee0b818c7c2d7c84fbcba5b8c363343461af",
        "f27a2098da6d330997f6b9d6ad24ec78ab40888d5ac9347f307c5f191aef243b",
    ),
    ("full-information", "BETA", 64): (
        "6e265d939b1656d1d70823f018b71a96ebc384590d4b28df9b4eb92295e519a9",
        "c0237859ae91ee8daab8cb8729f0852d913635e7b245c492a4447e3349f95ca1",
    ),
    ("full-information", "BETA", 97): (
        "e99fe9c96cc0bee0f274ed70adffee0b818c7c2d7c84fbcba5b8c363343461af",
        "f27a2098da6d330997f6b9d6ad24ec78ab40888d5ac9347f307c5f191aef243b",
    ),
    ("full-table", "ALPHA", 64): (
        "e988772a285cffe08d02cea201922c1300fe35380282d9a1432140a07c799b08",
        "3308aee26ff078e6c759e6e08bb577fdc141de8922a9716bf68ba4a5485e31d2",
    ),
    ("full-table", "ALPHA", 97): (
        "397f4f90552620da22dde0b06d2a684e5dbd72475240ac8bfe349d3a87db3ecc",
        "20c4147053e8a043459a8000c864dff18fc29d067040c1552ef8a10a1989c06d",
    ),
    ("full-table", "BETA", 64): (
        "e988772a285cffe08d02cea201922c1300fe35380282d9a1432140a07c799b08",
        "3308aee26ff078e6c759e6e08bb577fdc141de8922a9716bf68ba4a5485e31d2",
    ),
    ("full-table", "BETA", 97): (
        "397f4f90552620da22dde0b06d2a684e5dbd72475240ac8bfe349d3a87db3ecc",
        "20c4147053e8a043459a8000c864dff18fc29d067040c1552ef8a10a1989c06d",
    ),
    ("interval", "BETA", 64): (
        "c01f7e4e874b0945e9b2d7b4cabf0d77a9ed019d94403331c50a3e826d15d85c",
        "c8151dfe80ba79f71a4a5c9cb28938f7b9878625cb8687e33961c1a8d71123f7",
    ),
    ("interval", "BETA", 97): (
        "e5fc50649813c2d6bb229b8e05e93571d2473cce0e8327a1d697188f348afb87",
        "7c3022c3bdb118618e814671d0af4af17457366228f599b64c77f2f5fe3efbd0",
    ),
    ("multi-interval", "ALPHA", 64): (
        "7bb630f32a133e2acee37d609118bf860232d7e1349fa7a44e38c2a14416caff",
        "bba91646067f8a96fec24905f2ae6cfce9337ee3b60c755687b939f844c207ec",
    ),
    ("multi-interval", "ALPHA", 97): (
        "ede49eb55e53b60fcff3469f632703a8d70077b2a96c3ccf8234d9d45e143fea",
        "c6f8eae971ef7fdc4d5053a209746a40e09b3ce2dcf4f8be163260e717eb956e",
    ),
    ("multi-interval", "BETA", 64): (
        "7bb630f32a133e2acee37d609118bf860232d7e1349fa7a44e38c2a14416caff",
        "bba91646067f8a96fec24905f2ae6cfce9337ee3b60c755687b939f844c207ec",
    ),
    ("multi-interval", "BETA", 97): (
        "ede49eb55e53b60fcff3469f632703a8d70077b2a96c3ccf8234d9d45e143fea",
        "c6f8eae971ef7fdc4d5053a209746a40e09b3ce2dcf4f8be163260e717eb956e",
    ),
    ("thm1-two-level", "ALPHA", 64): (
        "e920acd75bc803f59c59c67abe56d50948229ba013ecfe985e17b79b827e36a8",
        "2d8f1fac6ef86c8470f23ddd035d1fe2125981d5eeb6e45f6fead623433ee03e",
    ),
    ("thm1-two-level", "ALPHA", 97): (
        "c0a3e47f827e79f14c39fa791a0e76d5b278ecf332ac437570e8b471e232fa4f",
        "c46e520c6aa6ad5e78d9684c5414ff1940329b5c493095d3b450326629069beb",
    ),
    ("thm1-two-level", "BETA", 64): (
        "e920acd75bc803f59c59c67abe56d50948229ba013ecfe985e17b79b827e36a8",
        "2d8f1fac6ef86c8470f23ddd035d1fe2125981d5eeb6e45f6fead623433ee03e",
    ),
    ("thm1-two-level", "BETA", 97): (
        "c0a3e47f827e79f14c39fa791a0e76d5b278ecf332ac437570e8b471e232fa4f",
        "c46e520c6aa6ad5e78d9684c5414ff1940329b5c493095d3b450326629069beb",
    ),
    ("thm3-centers", "ALPHA", 64): (
        "b58104584bf7be666aeb33a00463bee147319046f8c00f9df1804736c79eb040",
        "7949b591c635ec02646cb558413728b69f166c59af0568a7ce0f70ec19b0d60e",
    ),
    ("thm3-centers", "ALPHA", 97): (
        "5cd84d4f6cf386e2ad81893411b540e77d9edbe9fdadce9747af39129ac17ad6",
        "1b3c2597c4e60dc98c6c2906fd64b888409047484f3bf2ef957fa607c2008227",
    ),
    ("thm3-centers", "BETA", 64): (
        "b58104584bf7be666aeb33a00463bee147319046f8c00f9df1804736c79eb040",
        "7949b591c635ec02646cb558413728b69f166c59af0568a7ce0f70ec19b0d60e",
    ),
    ("thm3-centers", "BETA", 97): (
        "5cd84d4f6cf386e2ad81893411b540e77d9edbe9fdadce9747af39129ac17ad6",
        "1b3c2597c4e60dc98c6c2906fd64b888409047484f3bf2ef957fa607c2008227",
    ),
    ("thm4-hub", "ALPHA", 64): (
        "25f1ed24f58d31f749cb6e41f01829ab7ad29032e5ba5f3a9ca20083dbd8f70f",
        "89a0487362420df0831c960cd04b62580352f25a13e723dbd735dde4d6896d46",
    ),
    ("thm4-hub", "ALPHA", 97): (
        "74c24906c398101679758ae267f72516f7181d35705f5d54fb7d5da4f7679fd2",
        "9526237f226bf33c514c0a58ce85fe45ccd557cf730c664b46737e71f9d9bbc5",
    ),
    ("thm4-hub", "BETA", 64): (
        "25f1ed24f58d31f749cb6e41f01829ab7ad29032e5ba5f3a9ca20083dbd8f70f",
        "89a0487362420df0831c960cd04b62580352f25a13e723dbd735dde4d6896d46",
    ),
    ("thm4-hub", "BETA", 97): (
        "74c24906c398101679758ae267f72516f7181d35705f5d54fb7d5da4f7679fd2",
        "9526237f226bf33c514c0a58ce85fe45ccd557cf730c664b46737e71f9d9bbc5",
    ),
    ("thm5-probe", "ALPHA", 64): (
        "fc031a8617532dea453086652d066d3a2a99bacfdf701f3f21954959b5022ebd",
        "92417d88e659fc6e5e29833a728f0e6e51665c83e712159e2795a72f5bd90943",
    ),
    ("thm5-probe", "ALPHA", 97): (
        "1eaa7fdf58f79d65dea681630b06daa385358aaf2d63e8bb0f58e0be67095cf2",
        "cd05297bbbe684e59b551f64323fb5b98441672733182bb0fc2e3073076d7f14",
    ),
    ("thm5-probe", "BETA", 64): (
        "fc031a8617532dea453086652d066d3a2a99bacfdf701f3f21954959b5022ebd",
        "92417d88e659fc6e5e29833a728f0e6e51665c83e712159e2795a72f5bd90943",
    ),
    ("thm5-probe", "BETA", 97): (
        "1eaa7fdf58f79d65dea681630b06daa385358aaf2d63e8bb0f58e0be67095cf2",
        "cd05297bbbe684e59b551f64323fb5b98441672733182bb0fc2e3073076d7f14",
    ),
}


@lru_cache(maxsize=None)
def _graph(n: int) -> LabeledGraph:
    return gnp_random_graph(n, seed=n)


def _functions_digest(scheme) -> str:
    digest = hashlib.sha256()
    for u in scheme.graph.nodes:
        bits = scheme.encode_function(u)
        digest.update(len(bits).to_bytes(4, "big") + bits.to_bytes())
    return digest.hexdigest()


def test_cases_cover_every_scheme():
    assert {name for name, _, _ in GOLDEN_DIGESTS} == set(available_schemes()) - {
        "chain-comparison",  # needs a path graph
        "thm2-neighbor-labels",  # needs labeling γ
        "tree-cover",  # needs labeling γ
    }


@pytest.mark.parametrize(
    "name,labeling,n",
    sorted(GOLDEN_DIGESTS),
    ids=str,
)
def test_blob_and_restored_functions_are_byte_identical(name, labeling, n):
    blob_digest, functions_digest = GOLDEN_DIGESTS[name, labeling, n]
    graph = _graph(n)
    model = RoutingModel(Knowledge.II, Labeling[labeling])
    blob = pack_scheme(build_scheme(name, graph, model))
    assert hashlib.sha256(blob).hexdigest() == blob_digest
    restored = restore_scheme(blob, graph, model)
    assert _functions_digest(restored) == functions_digest
