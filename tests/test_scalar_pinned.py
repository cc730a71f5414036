"""Pinned scalar results: the reference engine's output for fixed seeds.

Every other scalar check compares two runs of this code with each other
(serial against processes, traced against untraced), so a change that
alters every scalar result in the same way passes them all.  This module
pins the results themselves: one SHA-256 per run over a canonical JSON of
its packet records, ``num_slots``, ``drained``, every collector counter and
``jammed_active_slots``, the trace's per-slot records (outcome, jamming,
arrivals, senders, listeners, winner and backlog counts), and the Φ and
dynamics values as ``repr`` strings.

A change that alters scalar results on purpose bumps ``SCALAR_LAYOUT``
and regenerates the table with ``PYTHONPATH=src python -m
tests.test_scalar_pinned``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary.arrivals import (
    BatchArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import BernoulliJamming, ReactiveSuccessJammer
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.dynamics.trajectory import ARRAY_FIELDS
from repro.exec.backends import SCALAR_LAYOUT
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

PROTOCOLS = {
    "low-sensing": LowSensingBackoff,
    "decoupled-low-sensing": DecoupledLowSensingBackoff,
    "binary-exponential": BinaryExponentialBackoff,
    "polynomial": PolynomialBackoff,
    "fixed-probability": FixedProbabilityProtocol,
    "slotted-aloha": SlottedAloha,
    "sawtooth": SawtoothBackoff,
    "full-sensing-mw": FullSensingMultiplicativeWeights,
}

WORKLOADS = {
    "batch": lambda: CompositeAdversary(BatchArrivals(40)),
    "poisson-bernoulli": lambda: CompositeAdversary(
        PoissonArrivals(0.05, horizon=600), BernoulliJamming(0.1)
    ),
    "bursts-reactive": lambda: CompositeAdversary(
        PeriodicBurstArrivals(8, period=250, num_bursts=3),
        ReactiveSuccessJammer(budget=10),
    ),
}

MODES = {
    "plain": {},
    "trace-phi": {"collect_trace": True, "collect_potential": True},
    "dynamics-64": {"dynamics_window": 64},
}

SEEDS = (11, 23)


#: The collector's counters; the engine computes each from a slot's values.
COUNTERS = (
    "num_slots",
    "num_active_slots",
    "num_arrivals",
    "num_successes",
    "num_collisions",
    "num_empty_active",
    "num_jammed",
    "num_jammed_active",
    "total_sends",
    "total_listens",
)


def result_digest(result) -> str:
    """SHA-256 of everything a scalar run reports, as canonical JSON."""
    collector = result.collector
    potential = result.potential
    dynamics = result.dynamics
    trace = result.trace
    payload = {
        "packets": [
            [p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens]
            for p in result.packets
        ],
        "num_slots": result.num_slots,
        "drained": result.drained,
        "counters": [getattr(collector, name) for name in COUNTERS],
        "jammed_active_slots": collector.jammed_active_slots,
        # Every field but the contention and Φ floats (Φ is pinned below).
        "trace": None
        if trace is None
        else [
            [
                record.slot,
                record.outcome.value,
                record.jammed,
                list(record.arrivals),
                list(record.senders),
                list(record.listeners),
                record.winner,
                record.active_before,
                record.active_after,
            ]
            for record in trace
        ],
        # Φ only: a sample's contention field is a builtin float sum(),
        # which Python 3.12 compensates, so its last bits vary by version.
        "potential": None
        if potential is None
        else [repr(sample.potential) for sample in potential.samples],
        "dynamics": None
        if dynamics is None
        else {name: repr(getattr(dynamics, name).tolist()) for name in ARRAY_FIELDS},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def digests(protocol_name: str) -> dict[tuple[str, str, int], str]:
    """The digest of every workload × mode × seed run of one protocol."""
    found = {}
    for workload, adversary in WORKLOADS.items():
        for mode, options in MODES.items():
            for seed in SEEDS:
                config = SimulationConfig(
                    protocol=PROTOCOLS[protocol_name](),
                    adversary=adversary(),
                    seed=seed,
                    max_slots=4000,
                    **options,
                )
                found[workload, mode, seed] = result_digest(Simulator(config).run())
    return found


#: ``protocol workload mode seed digest`` per line.
PINNED_TABLE = """
low-sensing batch plain 11 82edd87c0b1c799a35b112d1c7cc5dc0937d354e1d002742e27e85deb087291c
low-sensing batch plain 23 54a946d55ee255ac5e5031ea6e79c0c03886470b873418a4c61ce3100f0f0426
low-sensing batch trace-phi 11 5848b292f4b78c6adf1bd55829f6c5792fa1fc0c3e28190d32f7aab36ecfc455
low-sensing batch trace-phi 23 3190fde03f66a1896b56eed47763ecbf3aabacba1fd5d987f250d1ce07a4b2fc
low-sensing batch dynamics-64 11 5d3619850d81d8c2766d5ebd35a90b48bdcb4c0869883b263f07ccd73633b209
low-sensing batch dynamics-64 23 91501f507a1ad9c9820a29c42b3136bf1365eb8f56b5de7f251f63135ed48b05
low-sensing poisson-bernoulli plain 11 8095d3c7988f991b651af0c2e82ebe7fa379d95f1e452030ebe63fa8874fce0b
low-sensing poisson-bernoulli plain 23 866980beba61eaabb01f41644c64b39bf5e17bbcd43aa7315f1064578eeeb3ab
low-sensing poisson-bernoulli trace-phi 11 5f7af7da0fb2fdc9e3d7357b27bc1a304c9b924c8ca01a7add54d3d413f83e56
low-sensing poisson-bernoulli trace-phi 23 791e0e2921a7162cdb176b7cf68ad825183b5af1a33494f4c9b3908a57e7366b
low-sensing poisson-bernoulli dynamics-64 11 800bec413c00f14fad62c64ff11fe903c730332f9471a5433fef242eeab21d44
low-sensing poisson-bernoulli dynamics-64 23 00c2383c729ec3fa754f445d53cbdcf12a19cd931d4709e90c284ed4070023e5
low-sensing bursts-reactive plain 11 e95a42f1752fad7d31be00a1825ac5ddad5c144c2cc6a68572e9810803162d01
low-sensing bursts-reactive plain 23 02578fbc51a4b6e7a2bbf16bdbf08db3c80cce6b6c2d62f763618001a79619eb
low-sensing bursts-reactive trace-phi 11 96052ea4731f26012784ed29bbd6c0d05ddfd6ad1cf808b6ad71864b07c3cfab
low-sensing bursts-reactive trace-phi 23 e4289ea1f422c2b74960de70101c55e59658d1afd5f47e2db84d24cb2837d719
low-sensing bursts-reactive dynamics-64 11 5844eb73c89b292e4e012a37cb3926b52c85003f7fd0a8915c3642090ceb05ff
low-sensing bursts-reactive dynamics-64 23 f56aca1dafbe3dcd40d6c2a205920fd5f0291606b21a4a3492ccf8d02b278e72
decoupled-low-sensing batch plain 11 74641525c236a92e3c0ac91a4bb38766c3cb37b6df62480008b25d202d1b641b
decoupled-low-sensing batch plain 23 b4c685da9a71ce5a53941b515966ad668548f967c4966d2baf3d6805995be6cd
decoupled-low-sensing batch trace-phi 11 bc3f5de35bf720572bd2da96d9997c26094c894ccc6b8e092c6c2c73d8571ab3
decoupled-low-sensing batch trace-phi 23 f803301f587926b8466e5d3f398ab9dd9bbb9f7dc1d713082f8a6820d6b8e904
decoupled-low-sensing batch dynamics-64 11 4215b7b4feb7767dadeb755d6ff9461b7437c566cfe7bd79e4663f2b0e2605c1
decoupled-low-sensing batch dynamics-64 23 29c5bfa269f301fb26ccae961c0f87f0d000fa4d36540c633b7201c5b2aa3fa3
decoupled-low-sensing poisson-bernoulli plain 11 be32d68355bed949eb7b8dc10f7845cf9c416ed60f5865391adf0ec6a004691e
decoupled-low-sensing poisson-bernoulli plain 23 2040827e5b78bb94dade0859a525f7c5f215ba93b9af8f788c38488d48b845a8
decoupled-low-sensing poisson-bernoulli trace-phi 11 e776509e0007e32eebb3aaa37c97aced200b6ada8e061a29054f889eb41bc287
decoupled-low-sensing poisson-bernoulli trace-phi 23 3e8650f79ef4efcf2a429f31bef002cd9f5e9fb693d825c0bb3240870352e499
decoupled-low-sensing poisson-bernoulli dynamics-64 11 85e214907a12ed3eb541948dd3eae892feb3472c6fda15bebdf0097d7e43572c
decoupled-low-sensing poisson-bernoulli dynamics-64 23 339ba717c9080f7ee4b6150e0755dcede79752cec1a8801b9ea800e98fffce3d
decoupled-low-sensing bursts-reactive plain 11 604c01dcf6592693b504659e869dd4ef8b8721f05670c8b7a5c0d5969433dd1a
decoupled-low-sensing bursts-reactive plain 23 ad33cff48eae02529a82b7ac7bd0d8cdab3ba5be590bbc0412d900a013878f79
decoupled-low-sensing bursts-reactive trace-phi 11 2397edcf01da2993763a1e7e6f2253e5ff0bfeb997731a45eb5fe4d2017f8dca
decoupled-low-sensing bursts-reactive trace-phi 23 79834ea9772a6ef39c59f3f55054f74311eb5f6b681db3e2bd4b5a384af7f541
decoupled-low-sensing bursts-reactive dynamics-64 11 0c009831a8b6a65f6a7af82dfd50f4084a6e58162148c18b1944672f4e2abbad
decoupled-low-sensing bursts-reactive dynamics-64 23 0165130c2705dbf191a7c59dc86141b58a844f754955e4d0763700582084ede9
binary-exponential batch plain 11 faffdb195e3a42531822a25b56cf7ffdde92bf7d2203daa4b50fd7791b598fe1
binary-exponential batch plain 23 35c08b61309394fa6d61ba2b8c1a6a8d14cbf620e8060d2da4c7e2e7b81ce96f
binary-exponential batch trace-phi 11 7fa9205a3eda64cdd301c7f687292828430b6a446edcbac5e2fd5f775e5b36ca
binary-exponential batch trace-phi 23 084da923bddfe474518e6928ead727c5a9478e3c3cfcd0d22fb413d0f99ce55f
binary-exponential batch dynamics-64 11 26987f1f276b8dba27c2f77bb247756eb5c6f64fc7ff17c015c06ef2fc7a46d0
binary-exponential batch dynamics-64 23 f4d4c2a6afed177bec06c6e03dc3a992a6b644912e49ccd3d985ebf53aa1cfc8
binary-exponential poisson-bernoulli plain 11 10b720ca9bd9e63f7c0c66b08c2f91c50129194ab9397a64eff91ea4ba243fe6
binary-exponential poisson-bernoulli plain 23 c9c540cbef4492e9e902b45702482380c4bf48f9b73e77a0d511bc70131f2102
binary-exponential poisson-bernoulli trace-phi 11 30667d92287d7f17d872cb158e86776b8fb0ab4cc9c32114054abc7c7e5712e2
binary-exponential poisson-bernoulli trace-phi 23 04b34fadc48b1ac113c29d88c595dea5996d63bd66b1375543af3a3a960ea80d
binary-exponential poisson-bernoulli dynamics-64 11 0d52ed5c8be81e2eab21f758da007cfc403152f399f22d70747295d3ed089ee1
binary-exponential poisson-bernoulli dynamics-64 23 fa774659986c7d6e41f0dcba4b12e7b71ce166768909c3a7c8f29f6773fbaa45
binary-exponential bursts-reactive plain 11 2922aae83f9040b762640b0700731d58b52d3e344f23055c53009ba772e89876
binary-exponential bursts-reactive plain 23 c78ea48942ddf42e3fbaca341e2f4622a2aa960baba26965a71126cb4dde2043
binary-exponential bursts-reactive trace-phi 11 55a6754c513919964cf640a61b866319b68e88a1f83711f0f59847341987e4a5
binary-exponential bursts-reactive trace-phi 23 b7132ee5c71770d80ecc07f3bee809e25164415aa71171249e385dfe7ede36d1
binary-exponential bursts-reactive dynamics-64 11 10b1deb22deaf67b567bd9b90cb0fb04ce3e6a124162238b184c2e57552a0406
binary-exponential bursts-reactive dynamics-64 23 63b58225d879189dacac9e28f4931a14be2cff18b4559b515218d07c81898962
polynomial batch plain 11 777018b218a2285681b529f358e4dfaef69ed157a5f2b579de5bac0d7a06cdbc
polynomial batch plain 23 fcdc73d9a0d699cb7fa902310163af7941e99fdfe190d833ff6b56f665912d99
polynomial batch trace-phi 11 a3612483c1801ddda6de7d9b7e23095cff8afcac36e4e9eef10f5dd536b6cfec
polynomial batch trace-phi 23 3b234776ffd07639f413664eaa4e75ba0542594ded9dcf782f7a8dc99efd2971
polynomial batch dynamics-64 11 5dfe64c26c217fe3d865cfaf85f285605a32d3e6cef6c7e1bfe50600bd945129
polynomial batch dynamics-64 23 81fdd64b91ff2c7da46ef35ea88b84db2e6cd6e1045c659d3704d5254472baed
polynomial poisson-bernoulli plain 11 10b720ca9bd9e63f7c0c66b08c2f91c50129194ab9397a64eff91ea4ba243fe6
polynomial poisson-bernoulli plain 23 c9c540cbef4492e9e902b45702482380c4bf48f9b73e77a0d511bc70131f2102
polynomial poisson-bernoulli trace-phi 11 2df7910cbb20d225a93b70dcb8af0d3aabe0086c5d2657e40ba7ff785707070c
polynomial poisson-bernoulli trace-phi 23 3a005b94d5c2b492cbcedcec8bcc9b97d80f07179af3184a6ee00d4d455cb303
polynomial poisson-bernoulli dynamics-64 11 0d52ed5c8be81e2eab21f758da007cfc403152f399f22d70747295d3ed089ee1
polynomial poisson-bernoulli dynamics-64 23 fa774659986c7d6e41f0dcba4b12e7b71ce166768909c3a7c8f29f6773fbaa45
polynomial bursts-reactive plain 11 16fe8150b7b8c3e7acd8525697a19a6de566316a1a213ac47ab01c439072dfc9
polynomial bursts-reactive plain 23 af49933443a4333cbbf920d7566025ae4cfb390485775db7e5b790b9d53407fa
polynomial bursts-reactive trace-phi 11 7fcb345b0e643d9019a24dee4fa0e211282ae1439d79ea321535257b8e94d32f
polynomial bursts-reactive trace-phi 23 53639ed3c4d83b66d659e3650f1f8f88241dec282a410c1d2e50cb4d2132d47d
polynomial bursts-reactive dynamics-64 11 be5a2232bbd70f31c9de682e2b32988fcc5b0ecbe9730fae84142fd34f425a33
polynomial bursts-reactive dynamics-64 23 002a4930e8cd1add3640c0406d7eed665118b69cf4b247812435165174db0d38
fixed-probability batch plain 11 549937cc3d364bad4b64f98693395f1457f4889bbfe0bdcce92b887d131c8036
fixed-probability batch plain 23 708bb5f9a7681fa341fde6653630e9d3cc319ee89ee961046ee399721514c544
fixed-probability batch trace-phi 11 a6783e4b8e69cd696387ea44d8a93d0c345e4ce8862e7f0c21816bb9130e42f8
fixed-probability batch trace-phi 23 cee76e1afe36a06687cd0daf7da42db666bb35ca0d61d510321980a64d4cf6ae
fixed-probability batch dynamics-64 11 7e92d52400f30f207d644a60df595d8b27baf74800d9dd896a15ccd5ecf8c7be
fixed-probability batch dynamics-64 23 81b027dc6bc5b935b972e9956fe349d5ab25f352687e5fb134eda1542a895114
fixed-probability poisson-bernoulli plain 11 3d9566ed97dba143b4cc6efa46e891e0aa7e6f9059cf66d47783d088026fbdcd
fixed-probability poisson-bernoulli plain 23 cce7c55e9a547b1e11cca8704833395e13729df838bfee9e1714b0c0869dca56
fixed-probability poisson-bernoulli trace-phi 11 a69329bec41f71d965b71234d64804d5e4c4ed818fb0eb776275f6884d5b597f
fixed-probability poisson-bernoulli trace-phi 23 f275b75ba07152815b019aa9451b4f3d1e364525120c40fe38162f1da4798231
fixed-probability poisson-bernoulli dynamics-64 11 6623c4e33636cccddc9db81aee2ed448db795ef682b6e4743397f40fe479a94e
fixed-probability poisson-bernoulli dynamics-64 23 3054bbbb2cbe9165deb68fd44280f5299441a135848540c9d57da1cd632c12b9
fixed-probability bursts-reactive plain 11 a0e9b828088c54215564c8127c44910eeead08b2bb862b71eadd93dee5927731
fixed-probability bursts-reactive plain 23 fffbfa67bde3b1730fdd803340a4009186ce57d877553f4f3723a197d1904993
fixed-probability bursts-reactive trace-phi 11 80da7e98453344a7bf4a51ca22226e0785f197c49bcd2fe9d36953830651ee6f
fixed-probability bursts-reactive trace-phi 23 f451c09adbbd62c879c99acf36fb89c7883bfdd649426f1d4ec5887978e9dc37
fixed-probability bursts-reactive dynamics-64 11 3fcfedf7057965030bb2c8c7e17c7bb97bb7cb104e836345a0680b917d6bec26
fixed-probability bursts-reactive dynamics-64 23 c132c291c50bf6094db1416ed1d17bde33180a75a64d90fb36713332226e8ac1
slotted-aloha batch plain 11 2a4d1409ef424e81a89d11462e4413333ccbf2040285f9ccf909b10ad1048b06
slotted-aloha batch plain 23 08ef69a8d45544ea932218272ecd63d922b928a28be0ee47dd7b77deab52430a
slotted-aloha batch trace-phi 11 b16975f8ca0ca1d3dc2beff0e31027e7dafcfd15d9b51affa54f667fe7040934
slotted-aloha batch trace-phi 23 8c0c0b1c7e74e8041b6a509643e867267e32883616b107bbf123d302ddc0b7a1
slotted-aloha batch dynamics-64 11 12e012f5a5d9bc9842cb4a6771f5b216c855b86c58573c199c84e2d340ec9c48
slotted-aloha batch dynamics-64 23 5526a4fc03c1e3fe9e9f2b0d1be5eb1fd300efe478cc40a6d81b3bf2e9e84a2c
slotted-aloha poisson-bernoulli plain 11 7a691c51f7127b2e4b9556cd27a53359a3b2eb5c473f43f4e2948a5d3179ed38
slotted-aloha poisson-bernoulli plain 23 80e6968decf5f4f3ac87bd9faa8518d3f8388fe026d89b6df85dbdc8557da2a2
slotted-aloha poisson-bernoulli trace-phi 11 68f1a456f3bdf68845f57087afe8f9aadf6b8c0c9af5b86d8c713abf1242a036
slotted-aloha poisson-bernoulli trace-phi 23 a1124ff58968585e3614ef69c9bdf142515ad6a0cac917b2e7e9c3be6ba6fe8b
slotted-aloha poisson-bernoulli dynamics-64 11 cf693d619c340a574e4dfcca2f7d333439965f157ed7d4255cc1ea9d29ea2f9d
slotted-aloha poisson-bernoulli dynamics-64 23 415c3f0300e6d91dc82ef40953dc1b5ac571489d45d96633af6b38e1d115b20a
slotted-aloha bursts-reactive plain 11 1d1dbf02752d35a081b88be7ed468ec678e61c5c212cacd06a1266cacb70698d
slotted-aloha bursts-reactive plain 23 bae3273501bab4881ee8edd6dd6922a16f1069ad4a3a8960a421dfb26e4b9575
slotted-aloha bursts-reactive trace-phi 11 1d2c606cad5be7dc8c2c9f77886faaf0b266f90aaeb379e3619a00f253fc5118
slotted-aloha bursts-reactive trace-phi 23 e712acac3984d1955175b99bcfba8c69383edf7e4f2f684bd9fa0631e2376863
slotted-aloha bursts-reactive dynamics-64 11 bce7d9a860bc27b099d491ca10c533e1c1e2b5cd8c66bb5575e58bd84b46e73a
slotted-aloha bursts-reactive dynamics-64 23 91bc2eb4fdd2fe441f39d485f099921812e8e02907ecd75404aa6138d556b7fe
sawtooth batch plain 11 40986665817c8183d7b50a0e21eb76e15bad99e2f7a07545590079ffc4f2a4e5
sawtooth batch plain 23 4418f8b485733efce680454c43aa0a0bcb26d76ef00851c6cda3f4b7d7f56e86
sawtooth batch trace-phi 11 53578c9168e494292f512a7ebc2a2d3059eebc027ab26fcd3bca9551c591a8e7
sawtooth batch trace-phi 23 84d7e03486f155f3556a42a3a5cfc9fbaec292bff70e5f9e91dd685890074395
sawtooth batch dynamics-64 11 50ccdf8e0037b975ce90e9df5e3292ffc66d60a2621917417eb504a1423a21f6
sawtooth batch dynamics-64 23 a82ce891b533f53f3979fa91679be88f181c6aad910def23d9d6d9cdc3c671b0
sawtooth poisson-bernoulli plain 11 de65a2da74f066c84510dae81c9e5e425d6107d2c26de3bae2ac1b81927ee2c4
sawtooth poisson-bernoulli plain 23 69a8bc4a26c3f634da27eaf7ae78717dad1f4911a310f168ba2d6552db88cd9c
sawtooth poisson-bernoulli trace-phi 11 57de462f30f515bf39cf09365abf849006377736f3461b02638b377ac8722246
sawtooth poisson-bernoulli trace-phi 23 464a36f2ae85cb1c3b43d32d48e270bd7a99208f73425707303e9dd2aaf9730f
sawtooth poisson-bernoulli dynamics-64 11 ac93b138fc5dd5b25544d3717483ca28d75c447d3aabaf78c46d51345fae4cb6
sawtooth poisson-bernoulli dynamics-64 23 d22e103f5a3b70e3b5e45b8a405d200e3baee59a6308bbb5227ee543e75576c3
sawtooth bursts-reactive plain 11 bc0d4189a047d15c1e6cf66e413ee5940532055c44a2e024009ae23d9a8ae6e4
sawtooth bursts-reactive plain 23 fa7730e57f682faebb6f6f9ad33a399c2ecd5e670b401488cb43ac85a60160fe
sawtooth bursts-reactive trace-phi 11 121d50b70a6e14c513432bd6547fb4387b1db2d3ca30cbefeac404ac84228794
sawtooth bursts-reactive trace-phi 23 323bdf9f45766a575ed12bda30a8db05e5edeca185f4e54e5a45b92085c89ec2
sawtooth bursts-reactive dynamics-64 11 63ce06f0274f3773d7dc7f505262f3e721a216bb5d84ebdeab860781a7fb76aa
sawtooth bursts-reactive dynamics-64 23 ecbd6423a1bf07d566ebce683362f803b7d185a03d7e341b33bdcfc0b67ad64a
full-sensing-mw batch plain 11 7be7ba1062603794bba91c0f77d641fa9bfb065a34c916585d975806b7a227f3
full-sensing-mw batch plain 23 592fd5e99a1bd9aae21ce6e4e0521db6fd8ac6fa5e483743e49946dec3c2aa0d
full-sensing-mw batch trace-phi 11 c38f68056390860a166b2e4a9856706bf9ee81530a95c4e675c47fd9bbddb06a
full-sensing-mw batch trace-phi 23 9244bfa19f8b24a1a66dabbc9588c7ef1c52c60bec854b7fa239915a46cba416
full-sensing-mw batch dynamics-64 11 66235132c9b79572b37ee996187df4e590ea9d42100c0238023d251b3bc852b9
full-sensing-mw batch dynamics-64 23 4207d9487dcf994c9e83133ec56ed23b5f10c0236afbe64f417ff2f79ab3abd6
full-sensing-mw poisson-bernoulli plain 11 14777224b358f9d383c740552f69df4fb18323ed98d7c9c7de336d881d551631
full-sensing-mw poisson-bernoulli plain 23 763ed78c5f4be9351d127cd12cea1549bb1b2bb14174d5bb9e27241c40b6950b
full-sensing-mw poisson-bernoulli trace-phi 11 4e7cc8f46b1477702b2b3732159adce67220f930b176e46262f9a37b20629ef7
full-sensing-mw poisson-bernoulli trace-phi 23 be9682d4ee580cbfefc8749aa4da28a8e3c8d846e0123d650f90e6ef0b29b211
full-sensing-mw poisson-bernoulli dynamics-64 11 078219af35c54e8404b17e0e239c388f7caeae28d85fd0585468c95fc2579c47
full-sensing-mw poisson-bernoulli dynamics-64 23 6d900c6cf09c135d6c73249249d70cd0d66d83d99e6dccf9207a743f817a68c0
full-sensing-mw bursts-reactive plain 11 a2f54920dc49069f7d63349017e56c6169c8d703808e9674b849558eee182d9c
full-sensing-mw bursts-reactive plain 23 c07f841339fd38e01b06f82b97c58721727cf3d159f9d99ecb5a39594cea10ec
full-sensing-mw bursts-reactive trace-phi 11 909fda0d77372c838a264ea1b4b30317915be3a3eb5e1f0d9c8907907e73399d
full-sensing-mw bursts-reactive trace-phi 23 a381a343fbab22ce8fae48976b9f36ea7e3d29ed0ed3f150e37424d1f25ae676
full-sensing-mw bursts-reactive dynamics-64 11 3e09610668dd4dc763bfe270911a01fe1debe81c883a3037b44ca1b2c7aab5f9
full-sensing-mw bursts-reactive dynamics-64 23 407ac03c9f76b0f4c8da9f48ee6e14a337e50984753df04193bc57a15470c2fd
"""

PINNED = {
    (protocol, workload, mode, int(seed)): digest
    for protocol, workload, mode, seed, digest in (
        line.split() for line in PINNED_TABLE.strip().splitlines()
    )
}


def test_pinned_digests_belong_to_the_scalar_layout():
    # Results that change on purpose bump the layout, and the table with it.
    assert SCALAR_LAYOUT == "scalar:2"
    assert len(PINNED) == len(PROTOCOLS) * len(WORKLOADS) * len(MODES) * len(SEEDS)


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_scalar_results_match_pinned_digests(protocol_name):
    expected = {
        key[1:]: digest for key, digest in PINNED.items() if key[0] == protocol_name
    }
    assert digests(protocol_name) == expected


if __name__ == "__main__":
    for name in PROTOCOLS:
        for (workload, mode, seed), digest in digests(name).items():
            print(name, workload, mode, seed, digest)
