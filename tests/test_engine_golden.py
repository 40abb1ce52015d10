"""Golden digests of the timed engine's output.

Each case runs :class:`~repro.simulator.EventDrivenSimulator` on a seeded
``G(32, 1/2)`` with a :class:`RecordingTracer` and hashes everything the
run exposes: the records (sorted by ``msg_id``), ``forward_counts``,
``churn_summary()``, ``network.corruption_summary()`` and the full span
stream.  The digests were recorded from the original discrete-event
engine before it was folded into the batch kernel, so they pin the
folded engine to the old one's exact behaviour, span order included.

Every case is retry-free or uses ``jitter=0``: the old engine drew
jitter from one shared stream, the folded engine from a per-message
stream, so jittered retries are deliberately not pinned here.

Injection times mix whole numbers (many messages due at once, so
same-time ordering shows in the span stream) with uniform draws.  Each
case is also run untraced, through the vectorised lanes the tracer
would otherwise bypass, and must give the same records.

A second, untraced set (``SPREAD_GOLDEN``) pins fault-free runs whose
messages all arrive at distinct float times over a horizon, so no two
share a ready time.  Those runs take the quiescent drain, which carries
one clock per row; their digests cover the records (sorted by
``msg_id``) and ``forward_counts``, across link latencies, a hop-limit
cap and jitter-free retries.

To print the digests of the current code, run
``PYTHONPATH=src python tests/test_engine_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from functools import lru_cache

import pytest

from repro.core import build_scheme
from repro.graphs import gnp_random_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import RecordingTracer
from repro.simulator import (
    DetourWrapper,
    EventDrivenSimulator,
    RetryPolicy,
    renewal_faults,
    table_corruption,
)
from repro.simulator.churn import TopologyMutationKind, random_churn
from repro.simulator.failures import sample_link_failures, sample_node_failures

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)
II_GAMMA = RoutingModel(Knowledge.II, Labeling.GAMMA)
GRAPH_SEED = 101
MESSAGES = 64
NO_JITTER = RetryPolicy(max_attempts=3, base_delay=0.75, jitter=0.0)
EDGE_KINDS = (TopologyMutationKind.EDGE_ADD, TopologyMutationKind.EDGE_REMOVE)


@lru_cache(maxsize=None)
def _graph():
    return gnp_random_graph(32, seed=GRAPH_SEED)


@lru_cache(maxsize=None)
def _scheme(name):
    if name == "detour-full-information":
        return DetourWrapper(_scheme("full-information"))
    if name.startswith("crc8-"):
        return IntegrityWrapper(_scheme(name[5:]), FramingPolicy.CRC8)
    return build_scheme(name, _graph(), _model(name))


def _model(name):
    """Interval routing relabels nodes; every other scheme keeps labels."""
    return II_GAMMA if name == "interval" else II_ALPHA


def _injections(seed):
    clock = random.Random(seed)
    nodes = sorted(_graph().nodes)
    out = []
    for k in range(MESSAGES):
        at = float(clock.randrange(0, 3)) if k % 2 else clock.uniform(0, 24)
        out.append((*clock.sample(nodes, 2), at))
    return out


def _static(graph):
    return {
        "failed_links": tuple(sample_link_failures(graph, 8, seed=3)),
        "failed_nodes": tuple(sample_node_failures(graph, 2, seed=3)),
    }


def _static_retry(graph):
    return {**_static(graph), "retry_policy": NO_JITTER}


def _chaos(graph):
    return {
        "fault_schedule": renewal_faults(
            graph, horizon=30.0, seed=5,
            link_count=graph.edge_count // 4, node_count=2,
        ),
        "retry_policy": NO_JITTER,
    }


def _corruption(graph):
    return {
        "fault_schedule": table_corruption(graph, 8, horizon=20.0, seed=7),
        "repair_delay": 4.0,
        "retry_policy": NO_JITTER,
    }


def _churn(kinds=EDGE_KINDS, **extra):
    def config(graph):
        return {
            "churn_schedule": random_churn(
                graph, 5, horizon=20.0, seed=9, kinds=kinds
            ),
            "churn_repair_delay": 3.0,
            "retry_policy": NO_JITTER,
            **extra,
        }
    return config


def _plain(**extra):
    def config(graph):
        return dict(extra)
    return config


def _latency(value):
    def config(graph):
        return {**_chaos(graph), "link_latency": value}
    return config


CONFIGS = {
    "static": _static,
    "static-retry": _static_retry,
    "chaos": _chaos,
    "corruption": _corruption,
    "churn-instant": _churn(),
    "churn-nodes": _churn(kinds=tuple(TopologyMutationKind)),
    "churn-rate": _churn(churn_repair_rate=900.0),
    "churn-full-rebuild": _churn(incremental_repair=False),
    "latency-0.5": _latency(0.5),
    "latency-1.5": _latency(1.5),
    "service-0.2": _plain(node_service_time=0.2),
    "service-0.2-cap1": _plain(
        node_service_time=0.2, queue_capacity=1, retry_policy=NO_JITTER
    ),
    "service-1.0": _plain(node_service_time=1.0),
    "service-1.0-cap1": _plain(
        node_service_time=1.0, queue_capacity=1, retry_policy=NO_JITTER
    ),
}

ROUTING = (
    "full-table", "thm1-two-level", "thm4-hub", "thm5-probe",
    "full-information", "detour-full-information",
)
PLAIN_LABEL = ("full-table", "full-information")
CASES = [
    *((config, scheme) for config in ("static", "static-retry", "chaos",
                                      "latency-0.5", "latency-1.5",
                                      "service-0.2", "service-0.2-cap1",
                                      "service-1.0", "service-1.0-cap1")
      for scheme in ROUTING),
    *(("corruption", scheme) for scheme in
      ("full-table", "crc8-full-table", "thm1-two-level",
       "crc8-thm1-two-level", "full-information")),
    *((config, scheme) for config in ("churn-instant", "churn-rate",
                                      "churn-full-rebuild")
      for scheme in PLAIN_LABEL),
    # A node that leaves is isolated, which full-information cannot
    # rebuild around.
    ("churn-nodes", "full-table"),
]


def _run(config, scheme_name, tracer=None):
    scheme = _scheme(scheme_name)
    sim = EventDrivenSimulator(
        scheme, tracer=tracer, **CONFIGS[config](_graph())
    )
    for source, destination, at in _injections(config):
        sim.inject(source, destination, at)
    records = sorted(sim.run(), key=lambda r: r.msg_id)
    return sim, records


def _record_fields(record):
    reason = None if record.drop_reason is None else record.drop_reason.name
    return {**asdict(record), "drop_reason": reason}


def _digest(config, scheme_name):
    """SHA-256 over plain values only (no enum or dataclass reprs)."""
    tracer = RecordingTracer()
    sim, records = _run(config, scheme_name, tracer)
    h = hashlib.sha256()
    for part in (
        [_record_fields(record) for record in records],
        sorted(sim.forward_counts.items()),
        sorted(sim.churn_summary().items()),
        sorted(sim.network.corruption_summary().items()),
        [json.dumps(e.to_dict(), sort_keys=True) for e in tracer.events],
    ):
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest(), records


GOLDEN = {
    "static/full-table":
        "8cb18fc4b0061ca2bc1b0e1f5d3489a0ceb78e19572505636a64f46d171fa3d9",
    "static/thm1-two-level":
        "8cb18fc4b0061ca2bc1b0e1f5d3489a0ceb78e19572505636a64f46d171fa3d9",
    "static/thm4-hub":
        "1922d2d32e9e2d1749507796abb05da184816a2b1ab7bcff36ceae21f73081ab",
    "static/thm5-probe":
        "7f6b322984e03ceee44ac194bfd72f84967b773e0f1d1afe1294acb461c6ee29",
    "static/full-information":
        "e5ba7a059aaf11cbc8109d9070fc5af743fec041c606645871f9b272b8ed63e3",
    "static/detour-full-information":
        "2ecbd091f820fb41356f82e149be8e8c29679882cd0ac076d650927fee15ff7a",
    "static-retry/full-table":
        "072935b1d108a9af2e418725ec4c9d764e397e6aba0dfa12ee28c28eec8610ed",
    "static-retry/thm1-two-level":
        "072935b1d108a9af2e418725ec4c9d764e397e6aba0dfa12ee28c28eec8610ed",
    "static-retry/thm4-hub":
        "ac67467f371ff4dfbb14becd9dee7a31d5bb8c7742b7ca127962ccffedf4d8aa",
    "static-retry/thm5-probe":
        "8ee824b0ee0dffed9411761c58b016be4c475514856790c9304085ecfa03473b",
    "static-retry/full-information":
        "7acb77b53b47e5e3749099c066a3197d5a020adc229df9b5fbb9fe77a34b4c0b",
    "static-retry/detour-full-information":
        "87e8b4ee9f0c09e7602c181a03b272e0f05e5d7257e5f5d403d84b1d30bff9c7",
    "chaos/full-table":
        "c0436f6ce612a50eae4eaacbc9f75c52fe3b3d098c8ecde25022a864272fc5c1",
    "chaos/thm1-two-level":
        "c0436f6ce612a50eae4eaacbc9f75c52fe3b3d098c8ecde25022a864272fc5c1",
    "chaos/thm4-hub":
        "8d732ee4a9c02014e7ae8c6664d46ea8b4e3d62ca8392a6a1c147a115d59168c",
    "chaos/thm5-probe":
        "7b99e918e62e52c6f1054fa7e1b5098932954fd0114128bafb5ac6e4591035d1",
    "chaos/full-information":
        "19ab23269820166965d2f01a8e5ec2f3058fd94febb873284318b1374e114507",
    "chaos/detour-full-information":
        "1851eff38cae8222220a0b3e9fa57f189b6d1354fb41f66c1749f78f5c7571a6",
    "latency-0.5/full-table":
        "08866bb30517a246c6023391e07e8c561a40e89f818e7f266619200b24e46c48",
    "latency-0.5/thm1-two-level":
        "08866bb30517a246c6023391e07e8c561a40e89f818e7f266619200b24e46c48",
    "latency-0.5/thm4-hub":
        "3f9304ca55b1489187e61966c78cbb91f8c17d2d0ec45e738bf7132806c55c4f",
    "latency-0.5/thm5-probe":
        "a40482ebcf84804b048ddbdd7816de72f7178a9242fb92d7a94d04df7a6a222c",
    "latency-0.5/full-information":
        "c0a8fecf541368d7ce1b23d1b8c6feef9c04076201cb7e48199c137b48c4965d",
    "latency-0.5/detour-full-information":
        "9687c43171f38173785372fed8c0ad2f970e55445ff9c8e75162a2abb1c3a5eb",
    "latency-1.5/full-table":
        "c63a8f28c5c39f41da4233ee9eaa780b0e4431f66264031cbf61c8daff5117ac",
    "latency-1.5/thm1-two-level":
        "c63a8f28c5c39f41da4233ee9eaa780b0e4431f66264031cbf61c8daff5117ac",
    "latency-1.5/thm4-hub":
        "915b464d36ead07e6501271a2ba482d160f59104441ba3f50583df5268591a25",
    "latency-1.5/thm5-probe":
        "7da2f06597f8349ebdf1c4c6c92eef54d058c8272bcd649fb8231640bebbdb66",
    "latency-1.5/full-information":
        "c434944cd4d1891d30301f6c6b0496593426aa0b662fe35cff106bbd3d5b1b2e",
    "latency-1.5/detour-full-information":
        "e6b857f47309eea9548be165e590855e5c3417c86afcfa969de19d957d47c11b",
    "service-0.2/full-table":
        "1f3574f60ad6916cbb8ac43f6549071f75cedb7276b4e25d1481001aa1d82ef2",
    "service-0.2/thm1-two-level":
        "1f3574f60ad6916cbb8ac43f6549071f75cedb7276b4e25d1481001aa1d82ef2",
    "service-0.2/thm4-hub":
        "2257a1368895d66b43b2a68b1184c4be4ac3e0b7dcf8d288c46c253e0759d404",
    "service-0.2/thm5-probe":
        "9bea3fc1b63d8601643b5a6281c6b9dd568ef1bad1e42ce01e76368508d30593",
    "service-0.2/full-information":
        "1f3574f60ad6916cbb8ac43f6549071f75cedb7276b4e25d1481001aa1d82ef2",
    "service-0.2/detour-full-information":
        "1f3574f60ad6916cbb8ac43f6549071f75cedb7276b4e25d1481001aa1d82ef2",
    "service-0.2-cap1/full-table":
        "2f1b7ce5914397c016daf1e7734e82914d1d053f10b14fa5eeeb6df70590e429",
    "service-0.2-cap1/thm1-two-level":
        "2f1b7ce5914397c016daf1e7734e82914d1d053f10b14fa5eeeb6df70590e429",
    "service-0.2-cap1/thm4-hub":
        "0dcb0f42f57526a0a7e08d5005a7e490bce9a4dc9556af934767398c85f87f76",
    "service-0.2-cap1/thm5-probe":
        "25eac3202bba9afec23ae85786a34823700589978aa913f70b3c87620dbffeea",
    "service-0.2-cap1/full-information":
        "2f1b7ce5914397c016daf1e7734e82914d1d053f10b14fa5eeeb6df70590e429",
    "service-0.2-cap1/detour-full-information":
        "2f1b7ce5914397c016daf1e7734e82914d1d053f10b14fa5eeeb6df70590e429",
    "service-1.0/full-table":
        "cf1c478b62dd355241ffc2040907416357b26d45d27a64503cbce6eaeb5226c5",
    "service-1.0/thm1-two-level":
        "cf1c478b62dd355241ffc2040907416357b26d45d27a64503cbce6eaeb5226c5",
    "service-1.0/thm4-hub":
        "4ae3f2d0bb700c9919517188d7ef2c1d03fee9465bff7d455cf12c6942681249",
    "service-1.0/thm5-probe":
        "02b57982686ad327578595569322b404d8cb7d1cc76d23aab4804b6353d3f699",
    "service-1.0/full-information":
        "cf1c478b62dd355241ffc2040907416357b26d45d27a64503cbce6eaeb5226c5",
    "service-1.0/detour-full-information":
        "cf1c478b62dd355241ffc2040907416357b26d45d27a64503cbce6eaeb5226c5",
    "service-1.0-cap1/full-table":
        "2947216676b88fac2e686ce36d36c7d19b0795f8770bc2ab9adea3760558eb25",
    "service-1.0-cap1/thm1-two-level":
        "2947216676b88fac2e686ce36d36c7d19b0795f8770bc2ab9adea3760558eb25",
    "service-1.0-cap1/thm4-hub":
        "ba86126c45c6e099dd805d8d3fe4c020f4967e450fa572af3567418f0f3b15a9",
    "service-1.0-cap1/thm5-probe":
        "91d769b648e5becfb6316443f9059dff5fccddddf399cb1b26679b5aba82e404",
    "service-1.0-cap1/full-information":
        "2947216676b88fac2e686ce36d36c7d19b0795f8770bc2ab9adea3760558eb25",
    "service-1.0-cap1/detour-full-information":
        "2947216676b88fac2e686ce36d36c7d19b0795f8770bc2ab9adea3760558eb25",
    "corruption/full-table":
        "ce1df5b04674754aff353e7948aa5df401a42044f31ed273220d99d34e061708",
    "corruption/crc8-full-table":
        "30133a93bcd31d52cb43bb6be704569aa4c5c5525834b42a64dc112c886bb879",
    "corruption/thm1-two-level":
        "91f0185e3b5fefcc038637c86efe76b20e37da225c97242f6b1eea06982fef6a",
    "corruption/crc8-thm1-two-level":
        "30133a93bcd31d52cb43bb6be704569aa4c5c5525834b42a64dc112c886bb879",
    "corruption/full-information":
        "ce1df5b04674754aff353e7948aa5df401a42044f31ed273220d99d34e061708",
    "churn-instant/full-table":
        "895a1c37ebb42c469dc0fd48f9b88bac7ad04a4cf27dabf9c9d9e1905e17bbe8",
    "churn-instant/full-information":
        "9afd50b8f818966418ce59460dcc0f4766defaad9cc6bc051354dc8e8fe3d418",
    "churn-rate/full-table":
        "8c9bdda4710a9924dc6fc22b23e57021ebf2623fb9a47073b81ee1c6c74901ee",
    "churn-rate/full-information":
        "5a7dbe3c8904270ac442bd3d1d0e1fe37bddaca1f8e6518ffbedb6f3e911fdc9",
    "churn-full-rebuild/full-table":
        "3635444a0463808e521e23445a6770970ca69b999ec89f15fd7564eaf194eb72",
    "churn-full-rebuild/full-information":
        "0696b7d3a9bc1e393624b1eb6e16117115565e148aa3e50bee51f5ebfe694d66",
    "churn-nodes/full-table":
        "a4ad77b7d5f059ae5a13de5ecef70483c7ea7e26bd8b94da75b9a1c4a3f5315d",
}


@pytest.mark.parametrize(("config", "scheme_name"), CASES)
def test_engine_reproduces_golden_digest(config, scheme_name):
    digest, traced_records = _digest(config, scheme_name)
    assert digest == GOLDEN[f"{config}/{scheme_name}"]
    _, untraced_records = _run(config, scheme_name)
    assert untraced_records == traced_records


# -- fault-free runs with distinct float arrivals -----------------------------

SPREAD_MESSAGES = 160
SPREAD_HORIZON = 40.0
HOP_CAPS = {"full-table": 1, "thm5-probe": 3, "interval": 3}
"""Hop limits of the capped cases, set so that some routes drop."""


@lru_cache(maxsize=None)
def _capped_scheme(name):
    """A fresh build of ``name`` whose hop limit is ``HOP_CAPS[name]``."""
    scheme = build_scheme(name, _graph(), _model(name))
    scheme.hop_limit = lambda: HOP_CAPS[name]
    return scheme


def _spread_injections(seed):
    clock = random.Random(seed)
    nodes = sorted(_graph().nodes)
    return [
        (*clock.sample(nodes, 2), clock.uniform(0.0, SPREAD_HORIZON))
        for _ in range(SPREAD_MESSAGES)
    ]


SPREAD_CONFIGS = {
    "spread": {},
    "spread-latency-0.5": {"link_latency": 0.5},
    "spread-latency-1.5": {"link_latency": 1.5},
    "spread-retry": {"retry_policy": NO_JITTER, "link_latency": 1.5},
    "spread-hop-limit": {},
    "spread-hop-limit-retry": {"retry_policy": NO_JITTER},
}

SPREAD_SCHEMES = ("full-table", "thm1-two-level", "thm5-probe", "interval")
SPREAD_CASES = [
    *((config, scheme) for config in ("spread", "spread-latency-0.5",
                                      "spread-latency-1.5", "spread-retry")
      for scheme in SPREAD_SCHEMES),
    *((config, scheme) for config in ("spread-hop-limit",
                                      "spread-hop-limit-retry")
      for scheme in HOP_CAPS),
]


def _spread_digest(config, scheme_name):
    """Records and forward counts of one untraced spread-arrival run."""
    if config.startswith("spread-hop-limit"):
        scheme = _capped_scheme(scheme_name)
    else:
        scheme = _scheme(scheme_name)
    sim = EventDrivenSimulator(scheme, **SPREAD_CONFIGS[config])
    for source, destination, at in _spread_injections(config):
        sim.inject(source, destination, at)
    records = sorted(sim.run(), key=lambda r: r.msg_id)
    h = hashlib.sha256()
    for part in (
        [_record_fields(record) for record in records],
        sorted(sim.forward_counts.items()),
    ):
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


SPREAD_GOLDEN = {
    "spread/full-table":
        "149c6bc0dbb911a34d797f6d1bdbdf865e3e2fe34cf5ac04e6835d7fb9dcbe3e",
    "spread/thm1-two-level":
        "149c6bc0dbb911a34d797f6d1bdbdf865e3e2fe34cf5ac04e6835d7fb9dcbe3e",
    "spread/thm5-probe":
        "1e14f8f8e69eb5baab2f3d034261bac3daf97e0b4c5f73fb415f3d531fb64a17",
    "spread/interval":
        "81bbe77bc4ec65771bb7829134c20665066fe07b7f2784e1d03d407783964e84",
    "spread-latency-0.5/full-table":
        "2f5b24fa82501cccead59bb3dca585564439d4a2dd99b4123d5bb5f06c60dd15",
    "spread-latency-0.5/thm1-two-level":
        "2f5b24fa82501cccead59bb3dca585564439d4a2dd99b4123d5bb5f06c60dd15",
    "spread-latency-0.5/thm5-probe":
        "0feca511116d66235989f9c6c9e07ff10b6bd4269231ba0a1f076c30998294e5",
    "spread-latency-0.5/interval":
        "edc6e0cdfd3b66088e107c1378ccff75ea440d09fb5341cd16ba945905f40f2e",
    "spread-latency-1.5/full-table":
        "a1b25f97ce46f0e01c870cf5f403bc0e720b0d3ce2cec18448af892b8c3dc8c8",
    "spread-latency-1.5/thm1-two-level":
        "a1b25f97ce46f0e01c870cf5f403bc0e720b0d3ce2cec18448af892b8c3dc8c8",
    "spread-latency-1.5/thm5-probe":
        "ad4ea9c8f26b0d0b77f0d47a8595e03866dd59ea68387b75fc4e9642222a0a91",
    "spread-latency-1.5/interval":
        "6dfd7085f90ed6a912bb1763ba0ca14b9dde3981c1d76c17c235de7139aaaf71",
    "spread-retry/full-table":
        "d95a71c7688f7171da56f9108432b5ba449e055ad00269db25f8d65c3ebaf1bf",
    "spread-retry/thm1-two-level":
        "d95a71c7688f7171da56f9108432b5ba449e055ad00269db25f8d65c3ebaf1bf",
    "spread-retry/thm5-probe":
        "8dc3b244d37b0a14140deb3adac49cc1dd167860c1194d006b72feb665733678",
    "spread-retry/interval":
        "c4b5a737136ddcb4b080c9a786a1eca2f8d7f0db5f7380ff465601ffb641b326",
    "spread-hop-limit/full-table":
        "9bf7d41604c853bb5c81a7da2aa9ac1bd67a273e557e383b6fd72feb4a275be8",
    "spread-hop-limit/thm5-probe":
        "909a919d6bb799a708df58c55449c42a6be6f1b26a10bfbd46c92579ccca8774",
    "spread-hop-limit/interval":
        "48d1578ce370faf3e5dbd29abfff9ca5011456c32763f3469f89c8eec4522cce",
    "spread-hop-limit-retry/full-table":
        "6c41cd1e599b4f7896b4e5acfb070f329e1426a7a468cabd3a88fc7fedfa29cc",
    "spread-hop-limit-retry/thm5-probe":
        "f98d18bc60c4c3bc81be2d4f1b204a054e877f1119ce895df44ae887185edf70",
    "spread-hop-limit-retry/interval":
        "dc61e4abd1894763e97b411e8764ef6735f558f13acf5be6d31b50068f1d686d",
}


@pytest.mark.parametrize(("config", "scheme_name"), SPREAD_CASES)
def test_spread_arrivals_reproduce_golden_digest(config, scheme_name):
    assert (
        _spread_digest(config, scheme_name)
        == SPREAD_GOLDEN[f"{config}/{scheme_name}"]
    )


if __name__ == "__main__":  # pragma: no cover - digest recorder
    for config, scheme_name in CASES:
        print(f'    "{config}/{scheme_name}":\n'
              f'        "{_digest(config, scheme_name)[0]}",')
    print()
    for config, scheme_name in SPREAD_CASES:
        print(f'    "{config}/{scheme_name}":\n'
              f'        "{_spread_digest(config, scheme_name)}",')
