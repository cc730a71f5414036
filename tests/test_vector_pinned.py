"""Pinned vector results: the batch engine's output for fixed seeds.

The vector checks elsewhere compare two runs of this code with each other
(alone against grouped or mega-batched, the row loop against lockstep, the
access-driven reference against the engine), so a change that alters every
vector result in the same way passes them all.  This module pins the
results themselves: one SHA-256 per run over a canonical JSON of its packet
records, ``num_slots``, ``drained``, every collector counter with
``jammed_active_slots``, and the Φ samples and dynamics trajectory values
as ``repr`` strings.

Each batch key (kernel × workload × mode) runs twice: its default protocol
alone over both seeds, and the same specs stacked with a second
parameterisation of the kernel in one mega-batch, whose default rows must
repeat the alone digests and whose second group is pinned as well.

A change that alters vector results on purpose bumps ``RESULT_LAYOUT``
and regenerates the table with ``PYTHONPATH=src python -m
tests.test_vector_pinned``.
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
from repro.adversary.jamming import (
    BernoulliJamming,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
)
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.dynamics.trajectory import ARRAY_FIELDS
from repro.experiments.plan import factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff
from repro.scenarios.schedule import Phase
from repro.sim.vector import RESULT_LAYOUT, VectorSimulator
from tests.conftest import run_specs
from tests.test_scalar_pinned import COUNTERS

#: Each vector kernel: its default protocol and a second parameterisation
#: that shares its batch key.
KERNELS = {
    "low-sensing": (
        LowSensingBackoff(),
        LowSensingBackoff(params=LowSensingParameters(c=0.5, w_min=32.0)),
    ),
    "decoupled-low-sensing": (
        DecoupledLowSensingBackoff(),
        DecoupledLowSensingBackoff(params=LowSensingParameters(c=0.5, w_min=32.0)),
    ),
    "binary-exponential": (
        BinaryExponentialBackoff(),
        BinaryExponentialBackoff(initial_window=4.0, backoff_factor=1.5, max_window=64.0),
    ),
    "polynomial": (
        PolynomialBackoff(),
        PolynomialBackoff(initial_window=3.0, degree=1.5),
    ),
    "fixed-probability": (
        FixedProbabilityProtocol(probability=0.05),
        FixedProbabilityProtocol(probability=0.02),
    ),
    "sawtooth": (SawtoothBackoff(initial_window=4.0), SawtoothBackoff(initial_window=8.0)),
    "full-sensing-mw": (
        FullSensingMultiplicativeWeights(),
        FullSensingMultiplicativeWeights(initial_probability=0.1, p_max=0.3),
    ),
}

#: Arrivals × jamming.  The Poisson rows pass 64 packets, so the batch
#: grows its packet capacity mid-run.
WORKLOADS = {
    "batch": lambda: factory(
        CompositeAdversary, factory(BatchArrivals, 32), factory(NoJamming)
    ),
    "poisson-bernoulli": lambda: factory(
        CompositeAdversary,
        factory(PoissonArrivals, 0.2, horizon=350),
        factory(BernoulliJamming, 0.1),
    ),
    "bursts-reactive": lambda: factory(
        CompositeAdversary,
        factory(PeriodicBurstArrivals, 6, period=200, num_bursts=2),
        factory(ReactiveSuccessJammer, budget=10),
    ),
    "scheduled": lambda: factory(
        CompositeAdversary,
        factory(
            ScheduledArrivals,
            factory(Phase, factory(BatchArrivals, 10), duration=150),
            factory(Phase, factory(PoissonArrivals, rate=0.03, horizon=250)),
        ),
        factory(
            ScheduledJamming,
            factory(Phase, factory(BernoulliJamming, 0.3, budget=10), duration=100),
            factory(Phase, factory(NoJamming), duration=100),
            factory(Phase, factory(PeriodicJamming, period=5, budget=10)),
        ),
    ),
}

MODES = {
    "plain": {},
    "phi": {"collect_potential": True},
    "dynamics-64": {"dynamics_window": 64},
}

SEEDS = (11, 23)

#: Where a run's digest comes from: the default protocol alone, or the
#: second parameterisation inside the mega-batch.
GROUPS = ("alone", "mega")


def result_digest(result) -> str:
    """SHA-256 of everything a vector run reports, as canonical JSON."""
    collector = result.collector
    potential = result.potential
    dynamics = result.dynamics
    payload = {
        "packets": [
            [p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens]
            for p in result.packets
        ],
        "num_slots": result.num_slots,
        "drained": result.drained,
        "counters": [getattr(collector, name) for name in COUNTERS],
        "jammed_active_slots": collector.jammed_active_slots,
        "potential": None
        if potential is None
        else [
            [
                sample.num_packets,
                repr(sample.h_term),
                repr(sample.l_term),
                repr(sample.contention),
                repr(sample.potential),
            ]
            for sample in potential.samples
        ],
        "dynamics": None
        if dynamics is None
        else {name: repr(getattr(dynamics, name).tolist()) for name in ARRAY_FIELDS},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def digests(kernel_name: str) -> dict[tuple[str, str, str, int], str]:
    """The digest of every workload × mode × group × seed run of one kernel.

    Raises ``AssertionError`` if a mega-batch's default rows differ from the
    same specs run alone.
    """
    default, variant = KERNELS[kernel_name]
    found = {}
    for workload, adversary in WORKLOADS.items():
        for mode, options in MODES.items():
            alone = run_specs(default, adversary(), SEEDS, max_slots=4000, **options)
            second = run_specs(variant, adversary(), SEEDS, max_slots=4000, **options)
            alone_digests = [
                result_digest(result)
                for result in VectorSimulator.from_specs(alone).run()
            ]
            mega_digests = [
                result_digest(result)
                for result in VectorSimulator.from_specs(alone + second).run()
            ]
            assert mega_digests[: len(SEEDS)] == alone_digests, (workload, mode)
            for group, values in zip(
                GROUPS, (alone_digests, mega_digests[len(SEEDS) :])
            ):
                for seed, digest in zip(SEEDS, values):
                    found[workload, mode, group, seed] = digest
    return found


#: ``kernel workload mode group seed digest`` per line.
PINNED_TABLE = """
low-sensing batch plain alone 11 73de691180ede12f20490cc315db2bd542c4ea0f6d0284844c49f1dd8d9951cb
low-sensing batch plain alone 23 5cbfd994c1db0f829d16a1549acaeeb803817b583ac3efc04e22098f479885a1
low-sensing batch plain mega 11 73de691180ede12f20490cc315db2bd542c4ea0f6d0284844c49f1dd8d9951cb
low-sensing batch plain mega 23 5cbfd994c1db0f829d16a1549acaeeb803817b583ac3efc04e22098f479885a1
low-sensing batch phi alone 11 648bb90cfdffa3f39093815c185e3cbd061a6f88a5b1c3f629c033bc8805f715
low-sensing batch phi alone 23 c08ec0440440b5c469c5e2b0c6e401ec0917d746801cdfe1a7e16ec7e7931f47
low-sensing batch phi mega 11 648bb90cfdffa3f39093815c185e3cbd061a6f88a5b1c3f629c033bc8805f715
low-sensing batch phi mega 23 c08ec0440440b5c469c5e2b0c6e401ec0917d746801cdfe1a7e16ec7e7931f47
low-sensing batch dynamics-64 alone 11 0f920b770e0054da66b79e104231ab03795d83e1b70898fd3d95986e58c29c33
low-sensing batch dynamics-64 alone 23 d9ac984cf6b23764aea778514beafcf68b2f9b8bcd9685090571ebd2fc88e4bc
low-sensing batch dynamics-64 mega 11 0f920b770e0054da66b79e104231ab03795d83e1b70898fd3d95986e58c29c33
low-sensing batch dynamics-64 mega 23 d9ac984cf6b23764aea778514beafcf68b2f9b8bcd9685090571ebd2fc88e4bc
low-sensing poisson-bernoulli plain alone 11 bc77ac38ffec1c87f5580e41acec16a9a35c8391998c1ee2e30cc4dd0fde41cc
low-sensing poisson-bernoulli plain alone 23 099433574ad2b66ef7d717a117a59976a73766b1e2a01428f91a49655ce85808
low-sensing poisson-bernoulli plain mega 11 bc77ac38ffec1c87f5580e41acec16a9a35c8391998c1ee2e30cc4dd0fde41cc
low-sensing poisson-bernoulli plain mega 23 099433574ad2b66ef7d717a117a59976a73766b1e2a01428f91a49655ce85808
low-sensing poisson-bernoulli phi alone 11 027a6a25e9e30403fc4862d1bb52c3472be2104174cbc44c56fed4f8c41863a3
low-sensing poisson-bernoulli phi alone 23 1e52b3ae3c01b098d4e9c6f64bfc484e7bcb9a443ac892a47688761fdac8c3b5
low-sensing poisson-bernoulli phi mega 11 027a6a25e9e30403fc4862d1bb52c3472be2104174cbc44c56fed4f8c41863a3
low-sensing poisson-bernoulli phi mega 23 1e52b3ae3c01b098d4e9c6f64bfc484e7bcb9a443ac892a47688761fdac8c3b5
low-sensing poisson-bernoulli dynamics-64 alone 11 29b0d97a44058c8041c91c814525403bcd0a5b957966b0e721b6655f11e34064
low-sensing poisson-bernoulli dynamics-64 alone 23 0214a0e01fdfda10d2c47c089a8f6285d0b3d464718f092aa028c706b7dc79e2
low-sensing poisson-bernoulli dynamics-64 mega 11 29b0d97a44058c8041c91c814525403bcd0a5b957966b0e721b6655f11e34064
low-sensing poisson-bernoulli dynamics-64 mega 23 0214a0e01fdfda10d2c47c089a8f6285d0b3d464718f092aa028c706b7dc79e2
low-sensing bursts-reactive plain alone 11 287d4466ba72d3b44d53587a0bcea077aecd41dc7a46e45a25f515614464f004
low-sensing bursts-reactive plain alone 23 043e38780543ec1f6c092b0536e4e07e498ec55c8d55fe75193c06397a31f8d2
low-sensing bursts-reactive plain mega 11 287d4466ba72d3b44d53587a0bcea077aecd41dc7a46e45a25f515614464f004
low-sensing bursts-reactive plain mega 23 043e38780543ec1f6c092b0536e4e07e498ec55c8d55fe75193c06397a31f8d2
low-sensing bursts-reactive phi alone 11 4ec88a5bd69edd4149cc4debf9675b11dcdbf93d6a30fd208926cc557a97ae45
low-sensing bursts-reactive phi alone 23 2a1937b3f2af344a2a3fcd6ca54de4cd4cfcb1b234a1a83dc7ca5ce7d5f2700c
low-sensing bursts-reactive phi mega 11 4ec88a5bd69edd4149cc4debf9675b11dcdbf93d6a30fd208926cc557a97ae45
low-sensing bursts-reactive phi mega 23 2a1937b3f2af344a2a3fcd6ca54de4cd4cfcb1b234a1a83dc7ca5ce7d5f2700c
low-sensing bursts-reactive dynamics-64 alone 11 da8756ecf746d96db4c1ce5e642ef7d3db7466d92a8773f3884ad74eaff1f572
low-sensing bursts-reactive dynamics-64 alone 23 e1e6899ac3b5e8e73d1f23c952f2ee53b65f56f3655f651ad55cedc03d65d86f
low-sensing bursts-reactive dynamics-64 mega 11 da8756ecf746d96db4c1ce5e642ef7d3db7466d92a8773f3884ad74eaff1f572
low-sensing bursts-reactive dynamics-64 mega 23 e1e6899ac3b5e8e73d1f23c952f2ee53b65f56f3655f651ad55cedc03d65d86f
low-sensing scheduled plain alone 11 8afffc97afa775bf46685f13e19cc8e152c7da7bb79f046d89bea31b645414e9
low-sensing scheduled plain alone 23 aa03648967f934c564cbfd30b988985d9233643026175ab7c6357c6fc22d5938
low-sensing scheduled plain mega 11 8afffc97afa775bf46685f13e19cc8e152c7da7bb79f046d89bea31b645414e9
low-sensing scheduled plain mega 23 aa03648967f934c564cbfd30b988985d9233643026175ab7c6357c6fc22d5938
low-sensing scheduled phi alone 11 f38e46c1e013d54d899c04ed7d12cd629a05537decf0e8193a91f268e35815a3
low-sensing scheduled phi alone 23 cc4cf54f04c0ee39d3f3bd4737eedd3393f7e8f7bce6cb292dd41c16b13968ca
low-sensing scheduled phi mega 11 f38e46c1e013d54d899c04ed7d12cd629a05537decf0e8193a91f268e35815a3
low-sensing scheduled phi mega 23 cc4cf54f04c0ee39d3f3bd4737eedd3393f7e8f7bce6cb292dd41c16b13968ca
low-sensing scheduled dynamics-64 alone 11 e87cd0206056f5b3a4fb9949fcf54f0061cbe14cdec1b9a5544a8130279ff648
low-sensing scheduled dynamics-64 alone 23 0c38aa78deb5fd5fa88defcf48a7133a84af91079772afffbd26cfb867d12a9f
low-sensing scheduled dynamics-64 mega 11 e87cd0206056f5b3a4fb9949fcf54f0061cbe14cdec1b9a5544a8130279ff648
low-sensing scheduled dynamics-64 mega 23 0c38aa78deb5fd5fa88defcf48a7133a84af91079772afffbd26cfb867d12a9f
decoupled-low-sensing batch plain alone 11 9e1d2de7f10e999ad2fcd1d324b79ba90b4868adece650415c622d916f46bf3b
decoupled-low-sensing batch plain alone 23 91aeb2c7326f4fad6ac70edea9ce25f7d198796201d81c5e8c134cf5b446b855
decoupled-low-sensing batch plain mega 11 9e1d2de7f10e999ad2fcd1d324b79ba90b4868adece650415c622d916f46bf3b
decoupled-low-sensing batch plain mega 23 91aeb2c7326f4fad6ac70edea9ce25f7d198796201d81c5e8c134cf5b446b855
decoupled-low-sensing batch phi alone 11 579e9c5329e1e3b67dff068d2d248e9d83ce4a8b3308d9786d64e42c1f7fa5ae
decoupled-low-sensing batch phi alone 23 b52ae461099bb6a51cc6cb3e0ed130f92a74291298fd6673cf2b9567545dc6d1
decoupled-low-sensing batch phi mega 11 579e9c5329e1e3b67dff068d2d248e9d83ce4a8b3308d9786d64e42c1f7fa5ae
decoupled-low-sensing batch phi mega 23 b52ae461099bb6a51cc6cb3e0ed130f92a74291298fd6673cf2b9567545dc6d1
decoupled-low-sensing batch dynamics-64 alone 11 23df87ca692aabf8108e87d44588cae5c116ac3b786739c19837e2937cf27c82
decoupled-low-sensing batch dynamics-64 alone 23 c0f16b2bd826c5bcdfb1b030c7149c5ed42192f0e5efd0b008f64d40f2540638
decoupled-low-sensing batch dynamics-64 mega 11 23df87ca692aabf8108e87d44588cae5c116ac3b786739c19837e2937cf27c82
decoupled-low-sensing batch dynamics-64 mega 23 c0f16b2bd826c5bcdfb1b030c7149c5ed42192f0e5efd0b008f64d40f2540638
decoupled-low-sensing poisson-bernoulli plain alone 11 382fef8014765e24b902c880fb42fffd4ef4b9a7b02e34ffd37aeeaf8bd3d25c
decoupled-low-sensing poisson-bernoulli plain alone 23 5999d408ddf6476c9a875b4b4506a525540cc3462f92bf4051bf1dd80d5595b8
decoupled-low-sensing poisson-bernoulli plain mega 11 382fef8014765e24b902c880fb42fffd4ef4b9a7b02e34ffd37aeeaf8bd3d25c
decoupled-low-sensing poisson-bernoulli plain mega 23 5999d408ddf6476c9a875b4b4506a525540cc3462f92bf4051bf1dd80d5595b8
decoupled-low-sensing poisson-bernoulli phi alone 11 8bba2d997be4cc6a9337f20ab5eaebafa82834d3e6e8a8d6337e010b2aecb44e
decoupled-low-sensing poisson-bernoulli phi alone 23 b226437321203c8bc28755386bf8ce97db4ddf5d3237e7ad18bb4f648e90336d
decoupled-low-sensing poisson-bernoulli phi mega 11 8bba2d997be4cc6a9337f20ab5eaebafa82834d3e6e8a8d6337e010b2aecb44e
decoupled-low-sensing poisson-bernoulli phi mega 23 b226437321203c8bc28755386bf8ce97db4ddf5d3237e7ad18bb4f648e90336d
decoupled-low-sensing poisson-bernoulli dynamics-64 alone 11 fa527eaf9e7790614c703edafc36c4364d4cd8dc2ce908ea64107fdf2cda832d
decoupled-low-sensing poisson-bernoulli dynamics-64 alone 23 d1c7afb6f2e7dedf510c8a2bb69bccd46ba8be1a64a8a940599b381c93af461f
decoupled-low-sensing poisson-bernoulli dynamics-64 mega 11 fa527eaf9e7790614c703edafc36c4364d4cd8dc2ce908ea64107fdf2cda832d
decoupled-low-sensing poisson-bernoulli dynamics-64 mega 23 d1c7afb6f2e7dedf510c8a2bb69bccd46ba8be1a64a8a940599b381c93af461f
decoupled-low-sensing bursts-reactive plain alone 11 aa99257330937bfbacb207a69d5e7e26f3261d3c9f2ef8b60e9252858d745877
decoupled-low-sensing bursts-reactive plain alone 23 c6bd810f9bad4fb205ee1c60e10fd0d516fb6c61e3efcd2d4df870ea86dcad4d
decoupled-low-sensing bursts-reactive plain mega 11 aa99257330937bfbacb207a69d5e7e26f3261d3c9f2ef8b60e9252858d745877
decoupled-low-sensing bursts-reactive plain mega 23 c6bd810f9bad4fb205ee1c60e10fd0d516fb6c61e3efcd2d4df870ea86dcad4d
decoupled-low-sensing bursts-reactive phi alone 11 0a90f0267ce1ed843560467f2e2163b3d147c082f133ea1a2ee5b98ba38c24bf
decoupled-low-sensing bursts-reactive phi alone 23 ee2a47ec4615642892aa058e2661f0eb70858f3c460d30146f1126a008ea25ef
decoupled-low-sensing bursts-reactive phi mega 11 0a90f0267ce1ed843560467f2e2163b3d147c082f133ea1a2ee5b98ba38c24bf
decoupled-low-sensing bursts-reactive phi mega 23 ee2a47ec4615642892aa058e2661f0eb70858f3c460d30146f1126a008ea25ef
decoupled-low-sensing bursts-reactive dynamics-64 alone 11 4426f0e9e225a9cbcf87b84ca471ba64c03f17f4e120d61f5762e28a2cd6d3d7
decoupled-low-sensing bursts-reactive dynamics-64 alone 23 40f4f113114d0c20ac99e3504714c8c38386137b61da9ddaf8170b2198d7646c
decoupled-low-sensing bursts-reactive dynamics-64 mega 11 4426f0e9e225a9cbcf87b84ca471ba64c03f17f4e120d61f5762e28a2cd6d3d7
decoupled-low-sensing bursts-reactive dynamics-64 mega 23 40f4f113114d0c20ac99e3504714c8c38386137b61da9ddaf8170b2198d7646c
decoupled-low-sensing scheduled plain alone 11 90ed38a6c3d8fc7d73db3e31b35e9f68c0682f8fa9a462c6b180a6697c48af43
decoupled-low-sensing scheduled plain alone 23 c25f28d31d6ca656cdb200a37d851a837ca861f40d5893b23469980e386100f8
decoupled-low-sensing scheduled plain mega 11 90ed38a6c3d8fc7d73db3e31b35e9f68c0682f8fa9a462c6b180a6697c48af43
decoupled-low-sensing scheduled plain mega 23 c25f28d31d6ca656cdb200a37d851a837ca861f40d5893b23469980e386100f8
decoupled-low-sensing scheduled phi alone 11 847f8be2547e7c4db90bd943e859e5fcf311b110b347000a696578560b35cab2
decoupled-low-sensing scheduled phi alone 23 b1e94e617be43f50a6792b8a2034401de87beee0827493e3eb7c9316026deef6
decoupled-low-sensing scheduled phi mega 11 847f8be2547e7c4db90bd943e859e5fcf311b110b347000a696578560b35cab2
decoupled-low-sensing scheduled phi mega 23 b1e94e617be43f50a6792b8a2034401de87beee0827493e3eb7c9316026deef6
decoupled-low-sensing scheduled dynamics-64 alone 11 7c61c0801a13d3bfbeb08650fc59f8ab0dff31f61a0b68eb2abfacfbe0c73405
decoupled-low-sensing scheduled dynamics-64 alone 23 055df2519aeedcd75f7e5ab970a287aef92480fb40d0d21c6043047cb4901475
decoupled-low-sensing scheduled dynamics-64 mega 11 7c61c0801a13d3bfbeb08650fc59f8ab0dff31f61a0b68eb2abfacfbe0c73405
decoupled-low-sensing scheduled dynamics-64 mega 23 055df2519aeedcd75f7e5ab970a287aef92480fb40d0d21c6043047cb4901475
binary-exponential batch plain alone 11 4416358aa22b973c0dd701fb88120cf86e85520e10887cc43642eba0878e07fa
binary-exponential batch plain alone 23 791cf18e4308bfc2e7745a1dfb63b5b4b83c473560d64197f608770d59501bb2
binary-exponential batch plain mega 11 ca02d323b1d9f1caf6aaf254cb088806e61da67534b0aaab0bb558968806c6d6
binary-exponential batch plain mega 23 8d75c19f1143c41dc84172862699a84ea5314ddca541a16fa22728e1659ddc5a
binary-exponential batch phi alone 11 9cf2949a8e8e044a6a408d38dee5d961ee6a236d80bb4c26d97d96793a998832
binary-exponential batch phi alone 23 e6d2983646b77d18bf9e6796e9af078d89929c260e98d1920508e665a12a5124
binary-exponential batch phi mega 11 a7b163e58434ccde70072b43afb33fb4345ebe60d6ba6e7529d4c2d38b9ce856
binary-exponential batch phi mega 23 a7db6d9ac693cdf69d7f583e6fccf2d44a336088d65d6c45cc7013cc206f6fba
binary-exponential batch dynamics-64 alone 11 bed027a06a911b51f6a02c2ee0b1fed6465a3cd8dc3bc16ed270bf301ba9157b
binary-exponential batch dynamics-64 alone 23 2ca97ae3b907916959bb55f399acb76b3045dceb9b6f5922f1a62739b02303d1
binary-exponential batch dynamics-64 mega 11 818d00da82a0720feb9b9293c10eefc53100e09694f981a4d1f6d160bf3ab814
binary-exponential batch dynamics-64 mega 23 13cf0d198c5cdb34088adeaec8ebdae0109c1d9eb619c4278681fc5defd45a17
binary-exponential poisson-bernoulli plain alone 11 13808e3b983684b681e6d4c6e92ef91148f004301d302813b69e7e0744992468
binary-exponential poisson-bernoulli plain alone 23 b2786ea6d828ea0d720940b7a9171e35cf352ff87f73753628447c61b2626e97
binary-exponential poisson-bernoulli plain mega 11 aef2b563e6d232742655d27ddd083c9ac87ea487f32dd912fa0ad0b621b87fe5
binary-exponential poisson-bernoulli plain mega 23 cbaafe3161060181e54d589721bd8df3451e743dc81a8e81fd2fd82547540aa0
binary-exponential poisson-bernoulli phi alone 11 6f77eec7f722b86dd7b85dda55c66fea07c1dc85f6059469b978f0f3f4dfd7dd
binary-exponential poisson-bernoulli phi alone 23 4f88dde28c640576fc2ab3455548434198173119b2daafecc61063dba684bc4e
binary-exponential poisson-bernoulli phi mega 11 82e672b5584952dd49fc3ad5fa6e2e1a9f38c6841fd5ce8925d6e55b7bd86c71
binary-exponential poisson-bernoulli phi mega 23 b994a956127d7dfdebca0448d3cff7958fa4284ff6d322da02d1f165595d5ed7
binary-exponential poisson-bernoulli dynamics-64 alone 11 6838eeeabd8f11bd833fff782e46646781411eb12d59cf00a656718a9fa2359b
binary-exponential poisson-bernoulli dynamics-64 alone 23 ea0d88cc25847435c8b975002cff2c3c85334b46d6d9ef7d1a4052466b013d5e
binary-exponential poisson-bernoulli dynamics-64 mega 11 4b6bd76b197905ab1e8ed4e3ff8410ad420454b465420a803958e4ce9458bea2
binary-exponential poisson-bernoulli dynamics-64 mega 23 11ad4e69632f47dbafc3b0778eb5bf06eb7363d69df87de8bf1973f5ab600bfd
binary-exponential bursts-reactive plain alone 11 d89b50b7afb18f2d6f868a4f441c8e1eb3708e4d93c6a4a631426298f9e1b329
binary-exponential bursts-reactive plain alone 23 e5e27265d5657ca1de35c71bf5162c78a31ff51fc0eeb4b6cee510d06afbd5a5
binary-exponential bursts-reactive plain mega 11 f50d7751df1cfeea7b9673963d4e1ca1caf46cafb87eda8595f54e66623593c4
binary-exponential bursts-reactive plain mega 23 23df76dcb9c52a9e435f3b4a27c454d0935b02ed415030f95e3e6e7ad01fa944
binary-exponential bursts-reactive phi alone 11 5c19fe7d2f84026a0b9be09d148d4c910abe76498370e507c34babf4c18b886a
binary-exponential bursts-reactive phi alone 23 e91eb54cc02975256e637af32e43d2c88751de7227fc58117ec1b85dd9b7626c
binary-exponential bursts-reactive phi mega 11 c6ac602ec4dee6133a823262984931e4903204912b453936d026c111052c1a31
binary-exponential bursts-reactive phi mega 23 5fb8558b574b9cdc045799e2a802b3cb6eca40cb4fb247c705a10031e60c8397
binary-exponential bursts-reactive dynamics-64 alone 11 17b5d82b4bde27e4bdad8fb6e949d05b48f4b31c1649b9deeb25af437a284e1c
binary-exponential bursts-reactive dynamics-64 alone 23 08424fc51224d847cf133aa34fa5b7ddb77e2cac0318c29d98e817ef748730fb
binary-exponential bursts-reactive dynamics-64 mega 11 ae01471bdc337a8128f4a3d297abcd52487a5d6e6885b1eec74d18631fd53446
binary-exponential bursts-reactive dynamics-64 mega 23 1636d3895400db22252452603e1f92a16921e7e3cdef49a9e07c8c42230ad0be
binary-exponential scheduled plain alone 11 aa3532896a769edbf2511cb680222e0227cf71f459ed6ece1bd0bb5412e072f6
binary-exponential scheduled plain alone 23 5f1f89f8edd4cbd3b18a07f0814d524ef1b1329bc710fcf82e70d4371fafffe0
binary-exponential scheduled plain mega 11 68cd423069ff64d9e0b5c6914c8518723d23bac8698243145865c996b1d9f737
binary-exponential scheduled plain mega 23 fc9396ecb204f56570b15d3860fcdc0261f3f6389072072f3f5cf984423caac9
binary-exponential scheduled phi alone 11 340a48f81b1fb188cce841fc0ecc8c8017cffc58ee22836b7d38f13a81367b5c
binary-exponential scheduled phi alone 23 1e1f3341e9c043c0c23b77ff8bc47dd4fc18b2e9ee31dc1fc341f727c6a2c006
binary-exponential scheduled phi mega 11 bb8a38798c0d0f0b23547dea9e3f81fd7369613be7313210440a941ed9953e82
binary-exponential scheduled phi mega 23 3298631d3d8efb18a55f37bec723752a9a410322e806861a0da3b2952e5a4efb
binary-exponential scheduled dynamics-64 alone 11 d07126e3282a900ad5456d0d6dad987e962fc65b8a99cdeb0f557af8df2a88b5
binary-exponential scheduled dynamics-64 alone 23 eb10b249698caf8e0514cefbffea0794f03ae80e099af7bfaab38f82543ab851
binary-exponential scheduled dynamics-64 mega 11 203b7ca838706c786e404d2bf828925859051224a4c71c0cea355745c40b07d4
binary-exponential scheduled dynamics-64 mega 23 0c005ddf9ab22c89b5abd02bbd89761a00cc7bfbb56b5895c52ad4554317235c
polynomial batch plain alone 11 38ac3ce10afe4fd1f93e4c5b1f26ce403b5a31c4befca4e8500988fed23e4891
polynomial batch plain alone 23 93a39fbccd1f750c83ae6c140b78c522fb047ce6a08d52b9ceb64661cf2f6b0c
polynomial batch plain mega 11 0b3f015ee34ced920bc2142f3554f8fcce3c752d330630a030dfee89204d6e2d
polynomial batch plain mega 23 4b44883a9bbff556ef504f4ff1f674942063e0dd61cb23cc5037219832ff96f1
polynomial batch phi alone 11 c7e70846ab2d065a010bc169a150187284248588758f6995051e784f4eb1c076
polynomial batch phi alone 23 dfb8fad5024eeef449194381ebf32c36738bccb01b19d9727623f17b6d7cc7ff
polynomial batch phi mega 11 84c39ac35a82e49b13dcadf5ec04c9d556aa218f54d702bc1b2e11174c00f3cb
polynomial batch phi mega 23 0bb9530cd233576689af9c29cd645cc74631cea428739e0ddf63336f5e2a6751
polynomial batch dynamics-64 alone 11 46266fe3d57efeadff40786d6beb15d07a5f045c64e87da16f305074ef749309
polynomial batch dynamics-64 alone 23 75240194009e3f7e02b557b7fc60df2dc8e66062850d79e03c65087ad80da8bc
polynomial batch dynamics-64 mega 11 25a01626b3172c8948d91e08e33d687a9b96cef06527d725306edac74bffd668
polynomial batch dynamics-64 mega 23 b666a2e1c44a4f6a74279a69c9ff4a75484b9706c771b4e1842850380d3acbb1
polynomial poisson-bernoulli plain alone 11 b1d9d822c1674432ee881e9eaba7ea4d822081fbdbba179b677e2b796629c091
polynomial poisson-bernoulli plain alone 23 cf951b43cc50144b933bb9b5932caa12a4e0fa32a006afb37b404c52eaa1d0ce
polynomial poisson-bernoulli plain mega 11 8ddc709141ec2fb845e80e17e4467376c24a26eae790ac715ec06bb7fda77450
polynomial poisson-bernoulli plain mega 23 bfe689124990a55d597729e01485e7053aa1dc56be8ab19fe3e8273982299dc6
polynomial poisson-bernoulli phi alone 11 aba02b121911f6dd0e41859c7e5f3cfb53f1ed54df045c9accf01dffac6b6bf6
polynomial poisson-bernoulli phi alone 23 6139bcc8b91076ab1e4b57aa5a1335b5835436ac3dbdb7a689f61f01949aa72a
polynomial poisson-bernoulli phi mega 11 da6aea67603326933b41435e754772e7a0de5fdc387cdc8318ab07da2cbac820
polynomial poisson-bernoulli phi mega 23 8ae66a0abc0dfa00b1515d1dbf6ae5e8de8c823708b9c131c1cfb2e6f672d8fa
polynomial poisson-bernoulli dynamics-64 alone 11 4e6466df870836d780efc34e4e6c13c03226d3cc7f8ef52ea3c24ed258dfa1ff
polynomial poisson-bernoulli dynamics-64 alone 23 2e60e63f9ee8621a9f7ef4d70dbef46d81f789a7929559b85883cafe4b50edc8
polynomial poisson-bernoulli dynamics-64 mega 11 bb81b42bc792738c01b6348519f66b861fed16b6ef898d9f76675eda98a28b6e
polynomial poisson-bernoulli dynamics-64 mega 23 ec1ccc082a34abfa15d0ad4b4b22f02f5afdc347d5d3f6242d1f9d9b409f0db9
polynomial bursts-reactive plain alone 11 ef1b45c35cce8fb6cd6658d25c72ba86170e1a65474de9abd9585436db2b94c8
polynomial bursts-reactive plain alone 23 731fea56b5f41a4fb60dbdf071dfeb07b8b6d228d0ba6a54774328c3c3d2d6ad
polynomial bursts-reactive plain mega 11 eba71e3880a7d5f9dc46884586e1f373f2020c61505ff4a5a53d0b447dd6be6b
polynomial bursts-reactive plain mega 23 d485f67d7ec2b2dc2d5b7d1e6ea415967a799bb8a4ee200216596610eda45e50
polynomial bursts-reactive phi alone 11 93be61f9cf318772e1f8b005dc276bdc71bc12b4d4c3c194ede49c234b221f24
polynomial bursts-reactive phi alone 23 f7a056aedc7a14fa04d14359e09424ae60b56331594caff9c3e5a328e8e5428f
polynomial bursts-reactive phi mega 11 4e1decbdd0f896aa04720c286b2247360b57cb09b313e1c60e1b98b3f2d1efdd
polynomial bursts-reactive phi mega 23 318191f0ddd3630d98825c3dea0d636e837f74b577f805d2b85b46f0c6193efb
polynomial bursts-reactive dynamics-64 alone 11 f455616ef47f64dc205cc915971a4d31825aadc8e727d9ba3b5a02a47524319a
polynomial bursts-reactive dynamics-64 alone 23 20f719db5548f00d1ea06a781207c10eb1cff64b181a5833f9da73bca893c072
polynomial bursts-reactive dynamics-64 mega 11 f2f2fb064c47d3eafcc5d7af4e5a0671e1ffd875f066c53b0853619ec48b91db
polynomial bursts-reactive dynamics-64 mega 23 8f870e75840facf2f5394101c45b46e75e335e85315e7d06bdc07970138be031
polynomial scheduled plain alone 11 582c33d2193460e9639329ee520ede08f8ff5f997386dda78e72ded071993493
polynomial scheduled plain alone 23 450b624212d34f2b143b8ce16815ff8422134d796760103532a3806892408f20
polynomial scheduled plain mega 11 26c81e4c68168e331f80035c75b6730164115de158f822059fcdc3de0768eceb
polynomial scheduled plain mega 23 f18d765551c2dda673acbe7972fa99483714f096071714fed0a89b3095ec376f
polynomial scheduled phi alone 11 b3e965df0b38b889fd32bd27747aa4f89ec68d09e7caf86fb922200a1b74c5e2
polynomial scheduled phi alone 23 9084437a38162c67d1a05d0f48272c72513d5aa58a43db1910f03337efb0d4f9
polynomial scheduled phi mega 11 5b1c281fd4bee3798bafbe0353d8243dad80eca539a818d0a447d82ac3614b05
polynomial scheduled phi mega 23 34bf38bac84d5f1553472f999147321367b91b3910953cae0ad2481e283081bf
polynomial scheduled dynamics-64 alone 11 26e40341b72471c597c3526dbb0f9001bb18f16eefbc4266d1e88099b8b6b73a
polynomial scheduled dynamics-64 alone 23 693e2dc5fc6c573ab0411662354580aa826745461b0231aae4823653eab605c4
polynomial scheduled dynamics-64 mega 11 16562df9f6d6aa793eb2e69f727b012c0d26cc19b826dfacbbf64cb3ad0c72fe
polynomial scheduled dynamics-64 mega 23 66e0cdcb9f675a601a24486900fc4830095738d62b13648a68c0f40a4e9ca891
fixed-probability batch plain alone 11 1f19dcc48b6e69f2c498fb1b2f2b90a813f127ed18f08a54d311012da304964e
fixed-probability batch plain alone 23 938355f16b5a987911a37c70430b58c019c9674d5b906b0f148ab0fdc333bd33
fixed-probability batch plain mega 11 5cb1b96b0c7fa0025a7a6ed7b949081a9b211dccfb7aa57c808689dfcfb4074d
fixed-probability batch plain mega 23 2c6c50da8551274bf4af80c3a068649d776665e7ff084cb5a4ff57dac0c19109
fixed-probability batch phi alone 11 b99b6be87f2e0e092ebd1ae9031e05720a2db43302a1a850fcdb7d95802de5fb
fixed-probability batch phi alone 23 1a431062782d77ad580c610cf04a7481574b660b8709b5357acf785cc4868aa8
fixed-probability batch phi mega 11 8e2ad1caaff680511547ffaa6d7b654bed942acf4b8c42116d7b9050b425642a
fixed-probability batch phi mega 23 83ff309495eab2dea3f48f4939330daf29e2f1908d5aef4391234dfa1a8f1167
fixed-probability batch dynamics-64 alone 11 70780f1458512bb12291423a08ca4db1a2af344566d6e635e870857a2f9c6110
fixed-probability batch dynamics-64 alone 23 8f4dde54ec9f9dd0597ada4f2e25cc0b65516194537a7efad8b74bdfcf069da6
fixed-probability batch dynamics-64 mega 11 04327df17308165324ea5c9ba69f9363f5b02783224c939865a3293a0c24b556
fixed-probability batch dynamics-64 mega 23 e779fcbc4abb068c4ec265ef4e504f64bae57d0e79311ea45b8a4f295215c1ca
fixed-probability poisson-bernoulli plain alone 11 dbd3e1abbb4390d4228f672397c5ada2a61d9e142a9c16cb8ce0e8a271e9ffd0
fixed-probability poisson-bernoulli plain alone 23 1f8141a92a043e1fe0e6857da35b2ce93bd974c398b51fc8b6e906db61a39b47
fixed-probability poisson-bernoulli plain mega 11 51533b2d9d1fcba706dc9a9573731ec17581484470498313651f18e53104d4f1
fixed-probability poisson-bernoulli plain mega 23 50530506b3a1f520b8870224b8c20bf5f09221cd104a48e90032283d93d30e36
fixed-probability poisson-bernoulli phi alone 11 959ff23e02a7adec30cca3c5d855dcebe3535f7594030b7ca1541e8cf1a2f3d8
fixed-probability poisson-bernoulli phi alone 23 99a77fa68f87ae96976b0d604c8e03cb12be65d344fcd428c74726896cab6945
fixed-probability poisson-bernoulli phi mega 11 c0b3c08fb72f54b02fbb25a9688a189db9f4cc34dc6af142d6683c68f2609608
fixed-probability poisson-bernoulli phi mega 23 8a3a2e299d821abee4100bcd470f75c691468c0af02a5edaf96b59ed8936e867
fixed-probability poisson-bernoulli dynamics-64 alone 11 196fa6776b3b54f3080a079f3f912e0c303256e95fa86ee92f51243ba569298f
fixed-probability poisson-bernoulli dynamics-64 alone 23 5a1fcfd7fd1f0a4a7b015b02c57a8ee5e3e783db784f2c7dd2cac50b2fcbb9f2
fixed-probability poisson-bernoulli dynamics-64 mega 11 bc9fca96345fa66098f288c12c5cda0de5c796d4df61f3c4f1ab307152224a24
fixed-probability poisson-bernoulli dynamics-64 mega 23 5ff33e97d8f36ab3f5bab8acd619d0126d796e627c0863b463517776cfad7412
fixed-probability bursts-reactive plain alone 11 80e75f3dcb59ad2149afc95f5c77d3370571b951f103f4602fca3872c0b62e63
fixed-probability bursts-reactive plain alone 23 4d171fda63f5e0f2f9385e22fd1c01998e9366869dbc85d6f80ce11dce141aef
fixed-probability bursts-reactive plain mega 11 53f2b2f4eee6b9ac5f3252cf8e3ffec36099f380b4de3db4ee90b65572a90e85
fixed-probability bursts-reactive plain mega 23 878f57af05fa85b1be6db62b4c344091ac2383aaaaf688e5debcd614f9567cc5
fixed-probability bursts-reactive phi alone 11 3c6fa5c36b7dead725b57041ec284fcddf02d5b7e304665b239b73379a189be2
fixed-probability bursts-reactive phi alone 23 b4aa4983bf28ee645c620d17eae9ac27d8085dbc8eb813693e7a8ff045f60fa0
fixed-probability bursts-reactive phi mega 11 a35c66d3cf71addecd6e10af0789c190d922ade87394bfe04476d11e6e788033
fixed-probability bursts-reactive phi mega 23 8549dda79f01f84bb7d57e03b125e85e4671e6878dd7fd84516edd46b75f802b
fixed-probability bursts-reactive dynamics-64 alone 11 c76eb9380738bf100dc0316465abc16bf30e318d06e30ea10b3276f9878a2f09
fixed-probability bursts-reactive dynamics-64 alone 23 9427f084499ec7796b3563ba8551a8f95a88334e875b001d5425a6416353890c
fixed-probability bursts-reactive dynamics-64 mega 11 2648b9bb40958db0b443d021824c68ff5c4f8c53e73aac429cebd6c99dff2daf
fixed-probability bursts-reactive dynamics-64 mega 23 138f725e9568a00421c3deea2659ecd94ac7cc627c8110e85e6a2de8761b4dec
fixed-probability scheduled plain alone 11 43feea0f5d05215f0404982d51dca4c487d1f8a754a0d50db863ccf31c8028ff
fixed-probability scheduled plain alone 23 5fb586bf6fd7b751d556ced37fe37b0e2194b8d7918791f2b3254239d30528d7
fixed-probability scheduled plain mega 11 f7e4ce02b0198097f25665c5b292bd92ef63d1da0ba143a7363b6be5214aceca
fixed-probability scheduled plain mega 23 1e9565407759e9d22d767bb2ee98e627f01114be66a96969781404abe10eac4a
fixed-probability scheduled phi alone 11 3832840e72306aae3b958fd6a7656f8856572962e315d4c6fd85514a4c7a5492
fixed-probability scheduled phi alone 23 13b08bef28c574455be37c1e3f462d4ef5eb10240d912cc30c9dd024ddb5fdef
fixed-probability scheduled phi mega 11 91414f11f8b268e0b1ea34bafa44c8d0fa389ea8148d0ba8b69a0b9809c558f5
fixed-probability scheduled phi mega 23 a4a031e2b17a4c7ce047b64e5cd7ad46cbc66fd790539a3ebbcfa420e1745b32
fixed-probability scheduled dynamics-64 alone 11 634101a12f12ec7966877caa55ea11485ae2f1e57b657a9c2c55d531505e0f1e
fixed-probability scheduled dynamics-64 alone 23 b8bbcdb2b2f4606970710ea865fc71ca8fb7a221ab8591f45c85346a398c7a8a
fixed-probability scheduled dynamics-64 mega 11 1cf43e275ee75c01e6969e3998b68b421b7a45e7a571c95c4b9c29e3cf4c458a
fixed-probability scheduled dynamics-64 mega 23 ee2285f9c818b1ec1e1fe072071ca118ee35f3a9c81518cba3ceb0e6d034467c
sawtooth batch plain alone 11 afff43d7af617cb6f0fb1d1e2d1c1b3453389903dbb2027bd26fc57aecb168b7
sawtooth batch plain alone 23 3f3ce738e94c45f909a3e337c4a7e94e4e7f5106b3a07267b2b5d93209cabc9a
sawtooth batch plain mega 11 a76ead81daa4ba22a7d7063b11787b66ab66718780e7ea466574da072b847862
sawtooth batch plain mega 23 b67ba6b12f0947f4e84a6b204f5f7b87a4ba9f3ed29a019573cf07a164f1ea56
sawtooth batch phi alone 11 542c9772fe99d743ee843d24ec6a6210eca8e1b1a4ce0954fe07c71cb644b245
sawtooth batch phi alone 23 d3e74ffd76f7c727496c7e594bf8ecb5196dfb636be590faaacf09114a800bcc
sawtooth batch phi mega 11 7966f82827a74814a7c1b2977dd1dd6cd2d8d53e0d7f178d04aa0eaf37782615
sawtooth batch phi mega 23 6fa958d751e9ce9bb974e606b262ada3032761835e55c4fa09f27682d53a4c1b
sawtooth batch dynamics-64 alone 11 811a95eb6456e1ff33af43a93ea5e29e32ccee67b5ba4b9fe66efd25588bedeb
sawtooth batch dynamics-64 alone 23 f7d9ea3337315113bdc4856d9109fc26b8d47adf067cf2f23dd33fb43b985c70
sawtooth batch dynamics-64 mega 11 a868bcd18c1df762f303367c89112b7410c0592b1614b0afe78c2cf026b5b193
sawtooth batch dynamics-64 mega 23 96b13f7622a78c9e97c6081ee5c9a8eb2724091d30dd421ad0961e70acc603fa
sawtooth poisson-bernoulli plain alone 11 be1d1e3b94fe40231ca51aa6ad6a249c1828d974e64dd12f4e51a1f4ebd89e37
sawtooth poisson-bernoulli plain alone 23 9a67713a746abd75a90ec0c40d8e31d9ecfdcc2ea6dfed63e1e6b7f621da78fd
sawtooth poisson-bernoulli plain mega 11 a9e5f46ce1d8c672a0c6a1003a32c8d6569b2b57b3d78a141a80a24e265f1417
sawtooth poisson-bernoulli plain mega 23 4c51e6f1ae0969ab212aa4a44e0cacf878bf16ceda21aa88a88f31434fb260e7
sawtooth poisson-bernoulli phi alone 11 e06cdbde9e918149ea5043dad5dc27ea7c10bb5e78816091d2d2d3ccacf7ec0c
sawtooth poisson-bernoulli phi alone 23 db6ac55d25ebf32057470348d7b9d2f16feda9363577684f3f877ec61beb006c
sawtooth poisson-bernoulli phi mega 11 12aa8d9a57ae3b0c73ee073afe640946aab7e5cdf2dd175fb4dc4444ec449556
sawtooth poisson-bernoulli phi mega 23 79f9c32e869a0430783b0e2691b91e21231463e697d1e2e09ccb102263ec6e82
sawtooth poisson-bernoulli dynamics-64 alone 11 b5c0862ad5e61ee997882ca637d783fa7281de5ed4c1aaafcbb4c855a8c4ff9b
sawtooth poisson-bernoulli dynamics-64 alone 23 fb5194ba9b0b8c8a229c809a8aae70f502effdc49e9ea44aedb42045889043dd
sawtooth poisson-bernoulli dynamics-64 mega 11 b5e888dbfa25103d787b2688d6e760f5c8be85b254337a4e40640d6d6faa68e5
sawtooth poisson-bernoulli dynamics-64 mega 23 ca9732f9894b984844ac4aef1468476234b1d649a730c586e3172124a6bd8f0f
sawtooth bursts-reactive plain alone 11 5db3230dbce428d5721fc7381c6046131eb506aa7f8a14c80b8959130fffaebf
sawtooth bursts-reactive plain alone 23 652137b914f3eb8f6906f448f436391fa3f488f90f92ca226ca69e9741a27b21
sawtooth bursts-reactive plain mega 11 7134667ebd4845632ff1790204b9f9f9f57fbaf53fe379505e601d37ca6d5c92
sawtooth bursts-reactive plain mega 23 df0564e6d858e94a48a9d8a16a0fde39899982a58df2f47fb270f14f5e2a6de3
sawtooth bursts-reactive phi alone 11 7f715d851ea093ed3a08db6f236e940898466cc2d7d9b51b3db0a68f5692c3df
sawtooth bursts-reactive phi alone 23 f317c20a0d557747e0364a0214b078525e5412805262a42da59d4fdd380cea53
sawtooth bursts-reactive phi mega 11 f9e941c1a57d39d49144ae1dd9f45a84305bc4786eb49413f97f81f304b3303d
sawtooth bursts-reactive phi mega 23 3c94a43ad60b963796368f60b3aef712ff38b2c06e654b2fc18fd2f2fbc24e72
sawtooth bursts-reactive dynamics-64 alone 11 f6fbb569d11d80282a09e737eca25ba9d9df4d6c2ef9a525af94b45e1b219663
sawtooth bursts-reactive dynamics-64 alone 23 b3d739559e2ed5415c1ead260a0350aca53312e3f402195d23256aecab9b9a16
sawtooth bursts-reactive dynamics-64 mega 11 7ddbcf6d3d3eef8872bf7cd08d71a4274e2e351f7f045f81127ced9303a83453
sawtooth bursts-reactive dynamics-64 mega 23 15db2acba9d10ac9681d59f4bbca3ef5a0f5542f1b608f067e1ec0b9b48c863c
sawtooth scheduled plain alone 11 5ea7231eb9160aa66716528b0edc24510733ac515f753084de0bedae689fcd3b
sawtooth scheduled plain alone 23 3196588162e5f36e262d30f75a3f008e3db571f4b8a3a2259cd0cd08d7d6a93a
sawtooth scheduled plain mega 11 349245e1f4714e5e3fb46b04ff4e40b2b13b422bec3c5cd40ed3b40df960c0cf
sawtooth scheduled plain mega 23 b4b35b866a57a92dd62a2e45b12074620a616b562d7fefb6bcdedccb6262683a
sawtooth scheduled phi alone 11 73f5901bbf96a80db6fa1d15fff589ab5abd16eb555ba2863e83267bbecdbcd1
sawtooth scheduled phi alone 23 6085efc4844751d4057f42b55e1e942a2bc49cbc85705180424629b311d687c0
sawtooth scheduled phi mega 11 42418c498b655ad47820650a3db64b5786d61257a8b0a3a647bbfc037cb2f1e4
sawtooth scheduled phi mega 23 f142bd688601c3df55d67b8fbb1548d0e90a58afbade0e4e3f781ec6652c2e87
sawtooth scheduled dynamics-64 alone 11 5cc552ac405a648eb67659e96d14ac9a9e7838fda6dd612dd9db9d3449a54428
sawtooth scheduled dynamics-64 alone 23 020920427fafd27b4b17b5896a4851df61b0948962d45b91edebc675d4a398f6
sawtooth scheduled dynamics-64 mega 11 c85f09d05134aaf5b3ecd97c08461e200a1d810939a77e816f6dce2717184b2f
sawtooth scheduled dynamics-64 mega 23 144789584d0c1a7362a6ee94877895714d72e3d6b7d3770510254e55a6ff0e90
full-sensing-mw batch plain alone 11 a6e49d6aa077ad131cefca5513f56b8ac04500c01957f3c883e612eb2c184773
full-sensing-mw batch plain alone 23 a9804657e9caed82b8f2ff65483908679809b9c76756c9c5319a2f58a12e07c6
full-sensing-mw batch plain mega 11 54a171720c10d0688290c81fe6207c77f1d5f8631514b2853c610848b03e7b65
full-sensing-mw batch plain mega 23 1a762d4940d38546fe05dc86c6e45cd9214ba6a8442fc9c02171a3c156c9f415
full-sensing-mw batch phi alone 11 3282c2ca558b0c8884905e9da1fc915dd54a42f536b7575ef9fdd4cb1edf1d63
full-sensing-mw batch phi alone 23 a774f2820e13a3e4225ac0588246dfe8f40c65050c7d7b37951ce8ea77476cd8
full-sensing-mw batch phi mega 11 9892fea8177e68eb06be0b15066779be0be9b9b7d0feb942ba1db37d852a5a83
full-sensing-mw batch phi mega 23 cb6334b1d24199732438b99e97c8596b87ec73c0f4228049c0d8dc9c04dce269
full-sensing-mw batch dynamics-64 alone 11 cba0d3d14f8432c8284c139dd60c05594dae9fa8ab256c86efb3a5bbc640c9c0
full-sensing-mw batch dynamics-64 alone 23 daa3450ff108721a3b38fc7a88bc59e588a524572a47cf132977e7459e809c10
full-sensing-mw batch dynamics-64 mega 11 0b1c3c3bcab9d46c56d8f194b9b2015da619d0cd88088aced8d9d4fad402a0a8
full-sensing-mw batch dynamics-64 mega 23 f017ba3ce932604fc952298e392b60c897bf6993f0cdaf7cc62094f56d9f70d5
full-sensing-mw poisson-bernoulli plain alone 11 e4f747e5a0da92c300e05f4a4a58bc2140deceb5524f301e2e0b7bef1a3b31d9
full-sensing-mw poisson-bernoulli plain alone 23 b809672e546307b887fa958e8ea2c4e0b5d06207a725ce904491056a7a7a414f
full-sensing-mw poisson-bernoulli plain mega 11 82bd3cfb85f87880db23d3e473774dcb4a8f8cdef822edd90e2a47fc93f955f4
full-sensing-mw poisson-bernoulli plain mega 23 53301c0b1d3a596e9cf9e760a4f3aef895f5c79f2ddafe8f698bb8cd4e1f5fe0
full-sensing-mw poisson-bernoulli phi alone 11 133cb728af42f91b4067453ce65ae9b5401c8b5aa8409cb348f3062ae7c7b7b9
full-sensing-mw poisson-bernoulli phi alone 23 be1846d8ddd53ec27317ce1a78c19a97238028bf84b3e123e2a1c34dd0c4395d
full-sensing-mw poisson-bernoulli phi mega 11 355eb3976e09e48841298cf2fe4f6e9489f38dedad50721da55df47df1d2cf80
full-sensing-mw poisson-bernoulli phi mega 23 c830d6ec18f3b7e313608aa737de21b7339a1aa98c6fa54d43a871ceb3025f51
full-sensing-mw poisson-bernoulli dynamics-64 alone 11 afc672c7074ba3733cca51acd7ebee968020efa03d141ec4c23ff6b955379134
full-sensing-mw poisson-bernoulli dynamics-64 alone 23 ad9dc7701cc1a852a5a2b99fb62eda4ff4a240eba509b03cafba2edfcbebe0ec
full-sensing-mw poisson-bernoulli dynamics-64 mega 11 9b4d6921f97c7b66ea46ed2f996e66d9e2b5b3403b222ca6e0379c50c71287dd
full-sensing-mw poisson-bernoulli dynamics-64 mega 23 d82379e5631e02fcd9f456a368562fdbb610fd341e5f5b03fbf9f395797b6318
full-sensing-mw bursts-reactive plain alone 11 5cccc27a4237a809719a2b81b20d8b70fe0df58c748ae1a36fbb007a1d656415
full-sensing-mw bursts-reactive plain alone 23 df2a650df2e7f67b633961fd871c0eb049b2983446b05d1256a27686109e2396
full-sensing-mw bursts-reactive plain mega 11 113e281ec6e1c63e0bcb383c6a4086272ef1d4736df66889b8cc0dba2b445f51
full-sensing-mw bursts-reactive plain mega 23 0f20aad27c5b23eb643495d2157568d53307474008234d35519a3a0960d41ae5
full-sensing-mw bursts-reactive phi alone 11 9d3b20853a31998a9bf09f44003d28280be56707eda8c7e9d58b082c11e1bf19
full-sensing-mw bursts-reactive phi alone 23 402ed4357780c6c0925bcb5753964b2c4b1ff5d1aff894104f7f882850d9aa62
full-sensing-mw bursts-reactive phi mega 11 f76f76b2dc7ff6bc820ffe5f316d42338bcecc61e4b4a0d1ee4c725a9da3c9d1
full-sensing-mw bursts-reactive phi mega 23 65dce0b1b884dc9e7c221e9f14b42c006ff966116097adacae530bb15202e23b
full-sensing-mw bursts-reactive dynamics-64 alone 11 069f81f7efdc12f694c1ad7b5a3979a1cfb62ca88ea5c1bcd0c5d4984d8db571
full-sensing-mw bursts-reactive dynamics-64 alone 23 8c24fb8a7cad225e08c97c90a985b5c8adc80fdd1ba543b8e611a5b89d709587
full-sensing-mw bursts-reactive dynamics-64 mega 11 3000532151788ab081c7956b6bff6d7ec9b7b40bab6a3a1afb7fbf807e62bc5b
full-sensing-mw bursts-reactive dynamics-64 mega 23 18e8b035ddc6e49859954fd2d716a42e56a4b72415b3d828a07b1640e601050d
full-sensing-mw scheduled plain alone 11 5946d10853c2e74c9304f377a80a243f35d189432a4d4237a2daff1bcac749fc
full-sensing-mw scheduled plain alone 23 ccaa2c5103144293759b032bbf8613d8478f8aa689f7dcfdf153541c879c45fb
full-sensing-mw scheduled plain mega 11 18058b7fa5ed2a995cae077ae8e91e6766e58532c82ece02b455b4a1216ec856
full-sensing-mw scheduled plain mega 23 69fb2b1d074a6c6fc73fd25430be1c87dfe0e5d937ac5ff4299b9fd8db1f8fda
full-sensing-mw scheduled phi alone 11 4d23e85eabc4dc242fdff74ddd39fdb6f2bd82516b962a91bec30ae664583ff4
full-sensing-mw scheduled phi alone 23 a16d3c277546b7abc7602e2dcd5bc3528ef9c0bff339b544f5c5f9f35e21f082
full-sensing-mw scheduled phi mega 11 0ff2d459c9a23efa6b010bb974de89255b062be615552e2bc1c89814835ea6db
full-sensing-mw scheduled phi mega 23 36b89006a4e8c4073d32e74139a31605a067a0d13da60d7366fd3dcafddcd6d0
full-sensing-mw scheduled dynamics-64 alone 11 09687f458026e6f738ed2167497802e2608e412bdce9a964adb3f1045f850489
full-sensing-mw scheduled dynamics-64 alone 23 73200b3d8d461c42dd3709ebc3f5f252eea4662fe4f9dca2def23ff3ad5fe8e5
full-sensing-mw scheduled dynamics-64 mega 11 2cb6b9964cc12fde74bda49c552ef7111016a0363adf36d23e881666d71d252d
full-sensing-mw scheduled dynamics-64 mega 23 4d2b70c508abe84e57c5c48949f08b1162d8edc60e8d5c23be87b4110969c981
"""

PINNED = {
    (kernel, workload, mode, group, int(seed)): digest
    for kernel, workload, mode, group, seed, digest in (
        line.split() for line in PINNED_TABLE.strip().splitlines()
    )
}


def test_pinned_digests_belong_to_the_vector_layout():
    # Results that change on purpose bump the layout, and the table with it.
    assert RESULT_LAYOUT == "vector:5"
    assert len(PINNED) == (
        len(KERNELS) * len(WORKLOADS) * len(MODES) * len(GROUPS) * len(SEEDS)
    )


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_vector_results_match_pinned_digests(kernel_name):
    expected = {
        key[1:]: digest for key, digest in PINNED.items() if key[0] == kernel_name
    }
    assert digests(kernel_name) == expected


if __name__ == "__main__":
    for name in KERNELS:
        for (workload, mode, group, seed), digest in digests(name).items():
            print(name, workload, mode, group, seed, digest)
