"""Digest pins of the trace layer's outputs.

These digests fix, byte for byte, what the trace layer hands the rest of
the system: the collected (simulated, then noised) traces, the signal
table of every segment, the triage verdict on every corruption-corpus
sample, and the JSON that ``save_traces`` writes.  Any change to the
simulator, the noise RNG order, segmentation, signal extraction,
validation, repair or serialization that moves one bit fails here.

Traces are hashed through a canonical row encoding read from the
``Trace.acks`` row view: every number as ``float(x).hex()``, a missing
RTT sample as ``None``.  The encoding does not depend on how a trace
stores its rows, so the same digests hold for any storage.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cca import make_cca
from repro.errors import TraceError
from repro.netsim import Environment, simulate
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.corrupt import corruption_corpus
from repro.trace.io import save_traces, trace_from_dict
from repro.trace.noise import NoiseModel
from repro.trace.segmentation import segment_trace
from repro.trace.signals import extract_signals
from repro.trace.triage import TriagePolicy, triage_trace

#: The benchmark's collection settings (``bench/workloads.py``), copied
#: so that the pins do not move with the benchmark.
ENVIRONMENTS = (
    Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
    Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
    Environment(bandwidth_mbps=15.0, rtt_ms=80.0),
)
CCAS = ("reno", "cubic", "vegas", "scalable", "student4")
SEEDS = (0, 1)


def _collection(seed: int) -> CollectionConfig:
    return CollectionConfig(
        duration=15.0,
        environments=ENVIRONMENTS,
        noise=NoiseModel(
            jitter_std=0.002, dropout=0.02, cwnd_error=0.02, seed=seed
        ),
        max_acks_per_trace=10_000,
    )


def _num(value) -> str | None:
    return None if value is None else float(value).hex()


def _meta(value):
    return float(value).hex() if isinstance(value, float) else value


def _rows(trace) -> list:
    """The canonical encoding of one trace: header, acks, losses."""
    return [
        trace.cca_name,
        trace.environment_label,
        trace.mss,
        sorted([key, _meta(value)] for key, value in trace.meta.items()),
        [
            [
                _num(ack.time),
                _num(ack.ack_seq),
                _num(ack.acked_bytes),
                _num(ack.rtt_sample),
                _num(ack.cwnd_bytes),
                _num(ack.inflight_bytes),
                bool(ack.dupack),
            ]
            for ack in trace.acks
        ],
        [[_num(loss.time), loss.kind] for loss in trace.losses],
    ]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _table_digest(table) -> str:
    """Every column of a signal table: name, dtype and bytes, in order."""
    digest = hashlib.sha256(float(table.mss).hex().encode())
    for name, column in table.columns.items():
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def _triage_record(text: str) -> list:
    """Load one corpus document and triage it: everything it reports."""
    try:
        data = json.loads(text)
    except ValueError:
        return ["unparseable"]
    try:
        trace = trace_from_dict(data)
    except TraceError as exc:
        return ["refused_at_load", str(exc)]
    result = triage_trace(trace, TriagePolicy(mode="repair"))
    return [
        result.action,
        result.reason,
        result.report.render(),
        [[d.code, d.message, d.index] for d in result.report.defects],
        sorted(result.report.counts.items()),
        [[a.repair, a.touched, a.detail] for a in result.repairs],
        float(result.quality).hex(),
        result.trace is trace,
        None if result.trace is None else _rows(result.trace),
    ]


@pytest.fixture(scope="module")
def collected():
    return {
        (cca, seed): collect_traces(cca, _collection(seed))
        for cca in CCAS
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def corpus_bases(collected):
    clean = simulate(
        make_cca("reno"), Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
        duration=10.0,
    )
    return {"clean_reno": clean, "noisy_reno": collected["reno", 0][0]}


COLLECTED_DIGESTS = {
    "reno/0": (
        "07136135123dd9c35cce596b5eefdfb8245e8aa51e6ac57e47c024d34654f73d"
    ),
    "reno/1": (
        "2afa3989128166dc306b95804354ccc6b51e94aa69072a04dbe8c56c4eef3bc1"
    ),
    "cubic/0": (
        "e10f3a7063febf3a069fe52ebfd4c6e2881c44b68b13f1912adf1b46b208f6e3"
    ),
    "cubic/1": (
        "11aae7e80941d416f4f4cfeb0de51f34f824d4064a5bd6057422222cb6dabdd4"
    ),
    "vegas/0": (
        "07ea2da8d721a5fda69ca96ef4129511516a2cb4d7a4dbc25e04b2f0eb8c9d0e"
    ),
    "vegas/1": (
        "6032c8ffbc76e13b5c9584d1a88bc4d7d60985e45b909dd8291428eb9dbe3542"
    ),
    "scalable/0": (
        "5bb19e8571e947c75cbabba359dcddf3adb258fa709a6996e57ceb3eb03707e0"
    ),
    "scalable/1": (
        "487d7a4496d153315bac68eb367ca41b56ebf432c9008a44538516e57ac4239e"
    ),
    "student4/0": (
        "23006cb15d65698dc3170c0508c529988e07e1aef3b7749ef1fd9d14fd179cc3"
    ),
    "student4/1": (
        "766f4af2328875e9836d64839b2d1bdd30cb19b89ae3c62499ecd8411ec4afa2"
    ),
}

TABLE_DIGESTS = {
    "reno/0": (
        "2c6a061a5897adb7596d3622b6a0dd2ed34698cf5e4f61a8f51df62b6907e7fb"
    ),
    "reno/1": (
        "3c90e6656b0449b32cf23d6c59969d59f01c90b8e56f689ea34d7643d3fa207f"
    ),
    "cubic/0": (
        "5f5e82edaf5726f6eb1db86da77f050f7e58999a68f9b301823b35198843d19b"
    ),
    "cubic/1": (
        "747673bcceba086b05bd09b06157bcdaf78c7d2267fb03acaf7d85dfc935010d"
    ),
    "vegas/0": (
        "11edb69c1128c8ab4411502a3096676f68c08f82ce426cb4207e55e8f4f4903d"
    ),
    "vegas/1": (
        "6302e0dbace5d4c9808094c9602c040bce83cf1a33c291e20c05b1b3223fb832"
    ),
    "scalable/0": (
        "720618eeb0febb1962fcbe88e0829585fb4d94d5cc69b2c339641c667a02434f"
    ),
    "scalable/1": (
        "7a8ecfb28332aae3ec776b319c0f044886de29e6c430ed74f74e5887873a5675"
    ),
    "student4/0": (
        "3b3034c9fd0127f237dfd365410b4ef33e5ef893f0f695a10ac6bbccb794f2e8"
    ),
    "student4/1": (
        "0b1543351bc55e230f8a35e85baabb00517f8df09ddc76db85e11d0200a62d1d"
    ),
}

CORPUS_DIGESTS = {
    "clean_reno/clock_jump/0": (
        "dddcfb725e90204aa3897446db33c336fbf240a37969fb87443cf8e394987ec4"
    ),
    "clean_reno/clock_jump/1": (
        "a5b059ac5382f2634a0fcc74c99f6c93b9334fac7240d386904d152a1c08f0ae"
    ),
    "clean_reno/record_shuffle/0": (
        "2b22e42755d6e5b10305dbeca4a67d8c57792a17670b0469ed51eacb11e5418a"
    ),
    "clean_reno/record_shuffle/1": (
        "fb6fbee301bb7c91784405dc9fe4ad5e33e6abdecd661c59087902ecc6ac66ee"
    ),
    "clean_reno/duplicate_acks/0": (
        "c65079790410d1fd41cec939ebb863c649cca7e56d34eaf9991691d6b90ab224"
    ),
    "clean_reno/duplicate_acks/1": (
        "64c9ef20027bd1776b4ef77b209c1830b11d9b749660157f4c4fd722e4677d67"
    ),
    "clean_reno/nonfinite_fields/0": (
        "ce04b5de3ad3f6fdebb4fd83077eaac14c5a5989ce31851aefa7cb3f71bce886"
    ),
    "clean_reno/nonfinite_fields/1": (
        "8ec5baa2c62396ba05ffc8cc124883647e3b8682daf0aa1905db4000957f4a8b"
    ),
    "clean_reno/negative_cwnd/0": (
        "0e05ad36e4baab2ebb4b48d0102f22c6a15e394083863fc70d824341e741d71f"
    ),
    "clean_reno/negative_cwnd/1": (
        "b414ad4a4bc25b7361ef989ab0361d7fab8f552073f0e7d82b8568561afac911"
    ),
    "clean_reno/duplicate_loss_epochs/0": (
        "eb9285664f8dd261d1738780ab558fa280efaa48824a129e0cce4b8407369018"
    ),
    "clean_reno/duplicate_loss_epochs/1": (
        "eb9285664f8dd261d1738780ab558fa280efaa48824a129e0cce4b8407369018"
    ),
    "clean_reno/loss_outside_span/0": (
        "93eb205630fe754ef53e4e9d77a1245a20eb3afa579dbe70e84bd6a6acdb2775"
    ),
    "clean_reno/loss_outside_span/1": (
        "93eb205630fe754ef53e4e9d77a1245a20eb3afa579dbe70e84bd6a6acdb2775"
    ),
    "clean_reno/trailing_garbage/0": (
        "ea23afe7ba4809ad16d48fbbe76740ae19b17e936761908d1169f452b8f2a4ba"
    ),
    "clean_reno/trailing_garbage/1": (
        "ea23afe7ba4809ad16d48fbbe76740ae19b17e936761908d1169f452b8f2a4ba"
    ),
    "clean_reno/field_type_confusion/0": (
        "058fd3881ba298aa835119e0dffbc160d1f376a7bf44de66c3e368ebfa8d147e"
    ),
    "clean_reno/field_type_confusion/1": (
        "c017806239344665cdbc4f27ec6837a8e9960b212627ca4c6689062e859140b2"
    ),
    "clean_reno/malformed_arity/0": (
        "0e1a5b4a0523d43bddd32397daa976ab10e0c3f82922c335900dbd53e0ca8162"
    ),
    "clean_reno/malformed_arity/1": (
        "4d7de856ac9fa0559f6a79fb1a21b991abec859c16c98b9eee8d2be30b12fbdc"
    ),
    "clean_reno/unknown_version/0": (
        "da46aefe60d056f995d504c513f9e1e71e005c2eb0aec86f2f985106689d82c7"
    ),
    "clean_reno/unknown_version/1": (
        "86ddd2e007c53ad85f72bacf683e6d27876f7f760a8656a83278f78b00a17e8d"
    ),
    "clean_reno/negative_mss/0": (
        "131953c4f6cd5eea76cc3b80bb3807861b95c5319f0460875c7612122fe383ca"
    ),
    "clean_reno/negative_mss/1": (
        "92a088d57fb30c62eddd753affaa5c9ec962ac73665bd96086d82f51d204ae59"
    ),
    "clean_reno/empty_acks/0": (
        "06ac8f4db25651ed24fff59ae945538e25f86267c73ce59eecbcf1ebf15304df"
    ),
    "clean_reno/empty_acks/1": (
        "06ac8f4db25651ed24fff59ae945538e25f86267c73ce59eecbcf1ebf15304df"
    ),
    "clean_reno/truncated_json/0": (
        "960d86f1b5babba818b2dced56e04c026507d750bbcb650888253cc70bd9734d"
    ),
    "clean_reno/truncated_json/1": (
        "960d86f1b5babba818b2dced56e04c026507d750bbcb650888253cc70bd9734d"
    ),
    "noisy_reno/clock_jump/0": (
        "51f0adf80b8cd82e07c7ef08126ab04fefe40d352c0a118316712e53920e6853"
    ),
    "noisy_reno/clock_jump/1": (
        "ef5ec8cdd3c31d4055373cadbb1c454b7ca0d8a6a15cb3eb067a83dac88cd7a0"
    ),
    "noisy_reno/record_shuffle/0": (
        "67d7a7659fcf6cd16e44785e50c83d9d51bd58d1311c5b44b9d055031364cb7c"
    ),
    "noisy_reno/record_shuffle/1": (
        "6f5e75de8353c86ca0733155ecbca972ae8f576693fc9d093f7efdb48a19e71f"
    ),
    "noisy_reno/duplicate_acks/0": (
        "b6a811e3c5537b112f11a5e995adb9dfa773cae6d887d230b1a69b54e562739f"
    ),
    "noisy_reno/duplicate_acks/1": (
        "cff616d06716d3d2fd603c0981bf4ae8e546aa4aebf7d8fd01c141b390b1ebf2"
    ),
    "noisy_reno/nonfinite_fields/0": (
        "84fd5fd2401a1a0d5c7b7d35c5f0bf0b6abea45dfcf9bc075c81587b1dca0e1e"
    ),
    "noisy_reno/nonfinite_fields/1": (
        "e3f3e338d9f35fff26b4e7a107db35848f2a1333cbd488cc1c9b02c89f30177f"
    ),
    "noisy_reno/negative_cwnd/0": (
        "f7c9f3ae6f16f661c0145bcf74c4a4740c2cdea9123ea15145b4469b44a5e843"
    ),
    "noisy_reno/negative_cwnd/1": (
        "27d129d36b0e823f9cb8d4531caf5ee3f00040567c0d3da23a589cb2644e8513"
    ),
    "noisy_reno/duplicate_loss_epochs/0": (
        "9f6145781b0432f5620db73a5f83a27507fe9a02176b7cee7c5e955f8e381c36"
    ),
    "noisy_reno/duplicate_loss_epochs/1": (
        "9f6145781b0432f5620db73a5f83a27507fe9a02176b7cee7c5e955f8e381c36"
    ),
    "noisy_reno/loss_outside_span/0": (
        "31fdd808851c012197d14a71f54f22e9b4c80eb0e8a69834f9c89d8122272943"
    ),
    "noisy_reno/loss_outside_span/1": (
        "31fdd808851c012197d14a71f54f22e9b4c80eb0e8a69834f9c89d8122272943"
    ),
    "noisy_reno/trailing_garbage/0": (
        "249e3834c68e1ecb1103d7ad5b5f998a266c44fa0cccc23e4d01c74ca07bf24a"
    ),
    "noisy_reno/trailing_garbage/1": (
        "249e3834c68e1ecb1103d7ad5b5f998a266c44fa0cccc23e4d01c74ca07bf24a"
    ),
    "noisy_reno/field_type_confusion/0": (
        "19c4c6261136eb8e7b6d772f26ed82fbbd0ee65612ed784141c14e31f5197b23"
    ),
    "noisy_reno/field_type_confusion/1": (
        "8f1e733c80740cb54054b6b3cd1f45baf36325ad13001bd819ea9787a7d63ed8"
    ),
    "noisy_reno/malformed_arity/0": (
        "0e1a5b4a0523d43bddd32397daa976ab10e0c3f82922c335900dbd53e0ca8162"
    ),
    "noisy_reno/malformed_arity/1": (
        "4d7de856ac9fa0559f6a79fb1a21b991abec859c16c98b9eee8d2be30b12fbdc"
    ),
    "noisy_reno/unknown_version/0": (
        "da46aefe60d056f995d504c513f9e1e71e005c2eb0aec86f2f985106689d82c7"
    ),
    "noisy_reno/unknown_version/1": (
        "86ddd2e007c53ad85f72bacf683e6d27876f7f760a8656a83278f78b00a17e8d"
    ),
    "noisy_reno/negative_mss/0": (
        "131953c4f6cd5eea76cc3b80bb3807861b95c5319f0460875c7612122fe383ca"
    ),
    "noisy_reno/negative_mss/1": (
        "92a088d57fb30c62eddd753affaa5c9ec962ac73665bd96086d82f51d204ae59"
    ),
    "noisy_reno/empty_acks/0": (
        "afdc1f522b5d60431a1bf09cdc73b1546a0d98a4185085a6ddddc1e58858ad2a"
    ),
    "noisy_reno/empty_acks/1": (
        "afdc1f522b5d60431a1bf09cdc73b1546a0d98a4185085a6ddddc1e58858ad2a"
    ),
    "noisy_reno/truncated_json/0": (
        "960d86f1b5babba818b2dced56e04c026507d750bbcb650888253cc70bd9734d"
    ),
    "noisy_reno/truncated_json/1": (
        "960d86f1b5babba818b2dced56e04c026507d750bbcb650888253cc70bd9734d"
    ),
}

SAVED_DIGESTS = {
    "clean_reno": (
        "ed315ef8f68f77ca7f5840712db9e4fd5329260e90adc28a2ab51daa99692554"
    ),
    "reno/0": (
        "f35a7ce5a8f53596ea1e5f89f01ea35ffb19d350adf563a735be538a0de0840c"
    ),
    "cubic/0": (
        "c67887f4ecb1a788c0c87e5cdd7e3c4373c1811ca5edb8fb81cca91185fd035d"
    ),
    "vegas/0": (
        "f904e99aff3fab71847a954f8e4b439f4c2cee61276369fa100fcc2dfdefe5ee"
    ),
    "scalable/0": (
        "bce688cf443cbc256a8237f7eef94ae8123b28774c8ed254077ec525749c59a1"
    ),
    "student4/0": (
        "d0dfb7e295eee848f15e1982c36fbe07a5cbff6be7220bff376b2690419c6db5"
    ),
}


def test_collected_traces(collected):
    found = {
        f"{cca}/{seed}": _digest([_rows(trace) for trace in traces])
        for (cca, seed), traces in collected.items()
    }
    assert found == COLLECTED_DIGESTS


def test_signal_tables(collected):
    found = {}
    for (cca, seed), traces in collected.items():
        record = []
        for trace in traces:
            for segment in segment_trace(trace):
                record.append(
                    [
                        segment.start,
                        segment.stop,
                        _num(segment.preceding_loss_time),
                        _table_digest(extract_signals(segment)),
                    ]
                )
        found[f"{cca}/{seed}"] = _digest(record)
    assert found == TABLE_DIGESTS


def test_corpus_triage(corpus_bases):
    found = {}
    for base, trace in corpus_bases.items():
        for sample in corruption_corpus(trace, seeds=(0, 1)):
            key = f"{base}/{sample.corruption}/{sample.seed}"
            found[key] = _digest(_triage_record(sample.text))
    assert found == CORPUS_DIGESTS


def test_saved_bytes(tmp_path, collected, corpus_bases):
    bundles = {"clean_reno": [corpus_bases["clean_reno"]]}
    bundles.update(
        {f"{cca}/0": collected[cca, 0] for cca in CCAS}
    )
    found = {}
    for key, traces in bundles.items():
        path = tmp_path / "traces.json"
        save_traces(traces, path)
        found[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert found == SAVED_DIGESTS
