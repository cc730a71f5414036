"""Pinned scalar results: the reference engine's output for fixed seeds.

Every other scalar check compares two runs of this code with each other
(serial against processes, traced against untraced), so a change that
alters every scalar result in the same way passes them all.  This module
pins the results themselves: one SHA-256 per run over a canonical JSON of
its packet records, ``num_slots``, ``drained``, ``jammed_active_slots``,
and the Φ and dynamics values as ``repr`` strings.

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


def result_digest(result) -> str:
    """SHA-256 of everything a scalar run reports, as canonical JSON."""
    potential = result.potential
    dynamics = result.dynamics
    payload = {
        "packets": [
            [p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens]
            for p in result.packets
        ],
        "num_slots": result.num_slots,
        "drained": result.drained,
        "jammed_active_slots": result.collector.jammed_active_slots,
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
low-sensing batch plain 11 480430a1ab40cef2dfa9639fa4768af1764d3d220f40973bf7bc095d33b5548b
low-sensing batch plain 23 c93f4e22b0aac8931a62c8e142ec7b779bef723ebc830166d05d5054bcc0ac97
low-sensing batch trace-phi 11 a48d29fcb78c94ba178523165996137eece2278ba71ae509b9fee6a88182f3c5
low-sensing batch trace-phi 23 017a3bcd95dc9f9293bd588482503f3dd23d21b47c37b75486f8c388fbe743d7
low-sensing batch dynamics-64 11 486f8b5ad7b26e614eaa4f5f08ea2b1742a755f22ba158764c18d371b99efccd
low-sensing batch dynamics-64 23 42c384f0786631bd23cf78d9a9c8f82a2a7795b4f844abfbf7bdffaa95d78de3
low-sensing poisson-bernoulli plain 11 4ec1a5d09bb49b005079fd619769f134e12342c8f43562b48b633b6f4e0844c7
low-sensing poisson-bernoulli plain 23 1d3c8517614cd8a8f8860b7ef574bf70b0b5cd4a53852c3cb4dbdfc93815b19d
low-sensing poisson-bernoulli trace-phi 11 7cf8d365f29b4ff06fa943488930efa1397b2c0d21f79e63a4e78d36231d1cdd
low-sensing poisson-bernoulli trace-phi 23 0acb1e341b30cffd0cdb9ae29a33d67571aa0b6fb07696496ad4a21b7e5949f5
low-sensing poisson-bernoulli dynamics-64 11 36719068ee6412ff624a64713845825e508f57006b9c2994f12ee04899bae7fd
low-sensing poisson-bernoulli dynamics-64 23 9cf81608cc90d91a1d806e5520cd1a2804342de0d55db6893301d5fd446626cc
low-sensing bursts-reactive plain 11 f6d6c7b3bd394e6bd412039d800ac182cda9ee30b2a49d22c708f152f4306ee9
low-sensing bursts-reactive plain 23 32e1e4482cad63af0c758949ba5858ffd0ef2df4cc0453a2c7e751e578b4808e
low-sensing bursts-reactive trace-phi 11 df0a91a04653a51940fb3b7c308e34b06e8c3097ec3498d404e62760f1bf2835
low-sensing bursts-reactive trace-phi 23 61b9ae9a1f68fd108136586fa9ee9d56b2bff15ba1f2cb5a5d4f95b8c1eeb333
low-sensing bursts-reactive dynamics-64 11 e1c375e97c699e8d0722c098507d6d3722a35d9e5d28207d6ed4df20b4fba2ed
low-sensing bursts-reactive dynamics-64 23 95ae02f91f3b8f789289bcfbcfed3f1c3a05400a8fe2a9f0832a00d8c57bb438
decoupled-low-sensing batch plain 11 c8508244bd105455fbc37803d434181ad671578d44a17d49c43a29002b0b10ba
decoupled-low-sensing batch plain 23 bb6a427ffb2895cbec6410570167d6aa765b3bbd915bedb8b26cbdbb1f5eed97
decoupled-low-sensing batch trace-phi 11 b6d753dce111afd66e25b5048184bc961d259c0a55aec485a63559a5f1fd0c67
decoupled-low-sensing batch trace-phi 23 c8fa825d9f25a5c57a284b47db2ea05c9b266500ed98debd7184f1d273ee6eb0
decoupled-low-sensing batch dynamics-64 11 1d151b52f23137724ae561a03630befb143b44ca3f2430acd5995f59aa8d8cb9
decoupled-low-sensing batch dynamics-64 23 3dc6f1d635e4ffd5d32d24ef3786b5ef2eedb17829f7f62fa64fcab295c0fb17
decoupled-low-sensing poisson-bernoulli plain 11 d163aa1ce617d71e1c26cd38ae05aef9ca50f2ac39d9e1499043d4c7fa57d17e
decoupled-low-sensing poisson-bernoulli plain 23 05b7eb08d7cbed5de5949a31f2b4407a967ba1b1a59901de19183d473da6b096
decoupled-low-sensing poisson-bernoulli trace-phi 11 a80376143a1c421e887fea2fac4f19085c7cafd9392a27fe9e8131be977a472c
decoupled-low-sensing poisson-bernoulli trace-phi 23 6c7300ec71ddac40520e5000162896776167bf07dc1edd7fb11d9f4e0497886a
decoupled-low-sensing poisson-bernoulli dynamics-64 11 77d45e91b7e781fe7c07aee579e48fa0291736b29ca3e7b486a2a534e52adb9f
decoupled-low-sensing poisson-bernoulli dynamics-64 23 00e86c79740fa35748de42f3be1cfe733abe97551023043a65b4c8cfd14f5ca0
decoupled-low-sensing bursts-reactive plain 11 9c157d1929358ddb4c4e7e8bbcb9e3efe0a0137e955000d8ac80667d58d4a09c
decoupled-low-sensing bursts-reactive plain 23 cdeb9055373fb05f783347116d967bfacdd011a97cb778e086c0359ffce04a75
decoupled-low-sensing bursts-reactive trace-phi 11 a16d2224ac3bfaf7f19c1e26249b7dc5ac43f38a754360b9650ae0e59eebd59e
decoupled-low-sensing bursts-reactive trace-phi 23 658f3a1c780ce9269c9c4e1440cdfebea3fdd23296c5e19ede14e7745ea87dee
decoupled-low-sensing bursts-reactive dynamics-64 11 37efa37b7b816cc1b8e3e38dbe489fe998259c2c2093ed6f2f16b7bb2449124e
decoupled-low-sensing bursts-reactive dynamics-64 23 3f10a5e2d0763f1b78b5e260cf93ba7cb3d800cc525408c5f0569a5bf7d852a6
binary-exponential batch plain 11 bbc6a3fa42aaa815e8d4b2a8a87ee80d5f0af00d521a4cfe11d546b2b503e327
binary-exponential batch plain 23 d7208c37dbefefe1ced3498971b0c2c98dfd4cec1a80e613c8b2b7f832f67708
binary-exponential batch trace-phi 11 e6231d246ae9fca797fc9e6b906ca55201b1646412fa55f1b835ad696dbf5314
binary-exponential batch trace-phi 23 676466d9edc84d18c0161785bdfcd3d6f350bf0cbd7bcfc229fd8908ad9e4059
binary-exponential batch dynamics-64 11 2a2af03a55f44bb13ff061976a3207aa1de2665a9589485cc3d3ede5cab661f2
binary-exponential batch dynamics-64 23 f975ab8c02c07204119efebe421fdd3c800b58b82890baa06ea3311302686f95
binary-exponential poisson-bernoulli plain 11 701d370958863c051f5d69c065555587a9d9675709b2a91817decf56156d35d8
binary-exponential poisson-bernoulli plain 23 62b6729638ca3e0e8930055d5582f9f29fc9fc181762f894921abaa929845336
binary-exponential poisson-bernoulli trace-phi 11 b01b3c9cdca5e5d253d2183fd468a9f8a0da5acc21a9acd0c323dfcc5b997bcf
binary-exponential poisson-bernoulli trace-phi 23 92ec9ba81d70a08f0c43813e76780842f821cc025fe877294177c03e8679c5a4
binary-exponential poisson-bernoulli dynamics-64 11 2d97243a58183c7639e8338bd19e90050cdb4819a026d0fefdbde89d8614bfdc
binary-exponential poisson-bernoulli dynamics-64 23 cedd826a42de90410fa39d39f08cadfe64ab6bfce3878b852e96a45a040b35a0
binary-exponential bursts-reactive plain 11 a0ee2d97bb159aeebb000c601e947c78090b62e9afbf591adb94e1c5ca99b06b
binary-exponential bursts-reactive plain 23 5c4eb365a2d0e26d3fb774759a5d32ba220c1a4f47c740c12325f43184d6a0a3
binary-exponential bursts-reactive trace-phi 11 a890de0fa73deb34fde000ce7a75952768fdf0aeaf69c27f5e22976701623d7d
binary-exponential bursts-reactive trace-phi 23 dea76754b382b5f3fd9e5ecd07246f751d061d6551e3cf90957deba93ca870ea
binary-exponential bursts-reactive dynamics-64 11 7e92f18485c6077f70ad995ba6d79bc7d36998a462db4ef3f2b6675bfff8e610
binary-exponential bursts-reactive dynamics-64 23 12dd7821114121a0c30b5263239b4e23acc6a30ca87556119df5cb20765e6431
polynomial batch plain 11 6e0600c5b0297b23dbde27259e91228a27eec976cebcfe7b4f8ce8cc94afc853
polynomial batch plain 23 40ca67e3c7d3666aec639c21bfb0755688ef99632fab3364468c10fd110e91b9
polynomial batch trace-phi 11 f78977170fe2389c51a5e0a6f49578599128b9bbb2e3dc251bfd988503a06485
polynomial batch trace-phi 23 42bf0be2a6a3951e0f794d4e42b9fca2980a5f5aa3a58d29d30ae262910d8090
polynomial batch dynamics-64 11 81aed7b9227027b7c50acd9d1c03383a1410aefdeef3e027331a588a9babcbef
polynomial batch dynamics-64 23 23c9f06827c5b938023dbfb89edaec487b6f1471f29dae2c63e06bc8f43779d6
polynomial poisson-bernoulli plain 11 701d370958863c051f5d69c065555587a9d9675709b2a91817decf56156d35d8
polynomial poisson-bernoulli plain 23 62b6729638ca3e0e8930055d5582f9f29fc9fc181762f894921abaa929845336
polynomial poisson-bernoulli trace-phi 11 f2e8ea71c7d67b356faab45a198c259a94ddc06d8f7cd597f003386aa505feb6
polynomial poisson-bernoulli trace-phi 23 e3faebb6ce22fe83ccb37367ca04942894d2cde58a12c06b15393a38a37465bb
polynomial poisson-bernoulli dynamics-64 11 2d97243a58183c7639e8338bd19e90050cdb4819a026d0fefdbde89d8614bfdc
polynomial poisson-bernoulli dynamics-64 23 cedd826a42de90410fa39d39f08cadfe64ab6bfce3878b852e96a45a040b35a0
polynomial bursts-reactive plain 11 dc014572db009c1f778e23615e4c53c58e571cf3e30ce7fcb848f0095f0546ea
polynomial bursts-reactive plain 23 1a8cf8d1eb11d36d9fff9f2bb35c4f24a24456714946f8dec43a7be177f3be54
polynomial bursts-reactive trace-phi 11 bee7216017591a248fac1c9165ba1cd008f4ebe512e03bb43ca63dd04d1ca6c0
polynomial bursts-reactive trace-phi 23 d92cc5769307d07f71a15dbba94abe71bec09a0584165799931585d37e416a4e
polynomial bursts-reactive dynamics-64 11 172063159c2ed11439fcc6bf434b2cf141d746b0317f2112dcd1c678a9d8ce1e
polynomial bursts-reactive dynamics-64 23 d9fb95a0bf998494cda0b100a8458255ebccb52cd63e394efedc9e825ff2624b
fixed-probability batch plain 11 23510b78d67623e67d74be04658611a6ffd7c50543d347ddfc5930c5850663a7
fixed-probability batch plain 23 756cc398b5429c86378166ad8172ff89798b81e5fd605f4204278956083dfe60
fixed-probability batch trace-phi 11 c6d108cadf96c46b6388a14a8a318f4f6fd55c74a72120723125e65739faea24
fixed-probability batch trace-phi 23 e00fd9fd0285664fcd421125d4886c65b244339c5f98e70896144fa6b2b5b6a3
fixed-probability batch dynamics-64 11 0664bd98e6c95522da3cb15395e1c158527575a421469e95f66e478f9d6a0f07
fixed-probability batch dynamics-64 23 90fb8147db61973e22e9aeea64b5a1e6e548f18e1fb61703ddf52ffcbb8efa15
fixed-probability poisson-bernoulli plain 11 d9550c5bf3c9fc301ecac6bdd37eef47075464cd24691026ca6e7360cb744842
fixed-probability poisson-bernoulli plain 23 fb1903bb639cfe4cd4487d6f7b0edc69eef8e513689c2fe1e801da218c2f6aa9
fixed-probability poisson-bernoulli trace-phi 11 53d1a6c70ad0e0403f5c5e7f5d07df4bbdbc7ce8d660f1066e4ce76a5e6f7da3
fixed-probability poisson-bernoulli trace-phi 23 c639bed0908b55dfec1dd94f7ef8549df68e8926606be481c0e52e93e679c4ea
fixed-probability poisson-bernoulli dynamics-64 11 8e853f6fd5fae5d01a406168e26d613745467fae15975378568c2bdde7711150
fixed-probability poisson-bernoulli dynamics-64 23 d558713186dd2ea56f8b7e3223c439e751c9ac163b8458bda39d02ccfd2f3e58
fixed-probability bursts-reactive plain 11 ada1ae113173ad82f2977d9daa07d4b7760b8a0071357aab255035d5dc2f0f44
fixed-probability bursts-reactive plain 23 ab50284a2fac3cf91e7bdf17f38d992bcb6529e9877c38cc2c22d8a676ec6dbb
fixed-probability bursts-reactive trace-phi 11 91fda34f4f00fd765b8d4646f4e4fc978ca07186681fb802155ad0e37abe1d1e
fixed-probability bursts-reactive trace-phi 23 0fdd5236fc27ce3d46e04bff33dfef51d2f4fa1d29e104cf7630104853eaa489
fixed-probability bursts-reactive dynamics-64 11 9755a2bb8ac990ec2f612bc86d5dc06ba7cc37bb813dda9064f6e683424bb400
fixed-probability bursts-reactive dynamics-64 23 8deec9015fd8a78f5e26fe12963020efd55f2cbfadabe700b24e95daeffcd072
slotted-aloha batch plain 11 2b8aacf79f063182c9a03f229b3acf9bca271a1009fa1824c4f334e2c229074f
slotted-aloha batch plain 23 6dd2fe1d4bbf214c8d831a58dcec16beebec78a075d54e826cc63fac8125d2f4
slotted-aloha batch trace-phi 11 4a7c7da9517f711daee5e087a06d8f312ddeadef269f6e6890f2f5f1eb9ed329
slotted-aloha batch trace-phi 23 083a8d119707fd82508537d1d5c95ea568558fa2c2e4b6ecb35d57c751faae18
slotted-aloha batch dynamics-64 11 6cf9c25477bfc8a81b7fc214f355e726268b3a0dca88db494c647e106d6b11bb
slotted-aloha batch dynamics-64 23 8743968fda1345e8cfe5bb62c33bf52c9d0921da6bbf002028811600448674e1
slotted-aloha poisson-bernoulli plain 11 d4117c174780fa1ec655f9926ef22d32139b81bc8d67c9c38f9deb5d0ac924d7
slotted-aloha poisson-bernoulli plain 23 b783aab6a30c5e21e4378d918269eef8f3635e98ad7261f55727541c5aa0ecf0
slotted-aloha poisson-bernoulli trace-phi 11 594f1e5dd7d4ca0a7ec471eec33e731d9e731e5af69ee0b7bd7e94465d86d5ce
slotted-aloha poisson-bernoulli trace-phi 23 ee97d20f556fe1cb16568ef40c6f7dabc8a50d5a1f576b7c2cb141b25854ad09
slotted-aloha poisson-bernoulli dynamics-64 11 dd7b1004703ffc646c5ded0b7eb615170b63d6a1cb84cbf610fec2b0348c8ba5
slotted-aloha poisson-bernoulli dynamics-64 23 e996868b408331bb40fc765c1499886c13f4d427252c82d4e756b68cc0d1442f
slotted-aloha bursts-reactive plain 11 b600b3503d7e2cb6936d314970fdc193f28dd6e61fad393e5a66d275a14bfd99
slotted-aloha bursts-reactive plain 23 8b32202f87b25100c35813652a36444d3eb25405c99c20c900232dfaa088f251
slotted-aloha bursts-reactive trace-phi 11 5c2629633ef3faf34b956afbe66b088bb5c3af1964b10de6535d1bdceacf3f43
slotted-aloha bursts-reactive trace-phi 23 0a90ceb1e17a4a79689503dd75b7fafd7b30dd6dd4a65e7267e3eb7561c0a5a5
slotted-aloha bursts-reactive dynamics-64 11 d2de0ac8d9e14e77fc0a80d46343a1e5371bffc1a871572544d296c7dee7a345
slotted-aloha bursts-reactive dynamics-64 23 aa1489ea233f211056b0f48ffbb97042794197a3a461c2d9a28eccfa56b5c3c6
sawtooth batch plain 11 92f35f2e5b4f8723007b9e4160d047b627f7276d1e15f5b8593d48f0354ccd34
sawtooth batch plain 23 77e2f21fa9f02a0191d07b6c3bebc059e8be20232120f2f97ea94770c8ee256c
sawtooth batch trace-phi 11 f1bbb65597c94a1273ec820ed1d243283059df36ecca5d1e708f4954143322be
sawtooth batch trace-phi 23 f33a6fdd0a04e9e0e21db4d136abc89bc68360aa21cf8d3f74be6340f48f084b
sawtooth batch dynamics-64 11 056227b395cd57c5c834f138fbb6740092cc617969c5832e03f229b2ce29f02e
sawtooth batch dynamics-64 23 14e5fdf1b553150414f67c509c14fca7a37b9ddec0ef9424046ff5aa78a8f28f
sawtooth poisson-bernoulli plain 11 5453bad6e1da9d160e2a8652cbd716fa774962d599f302a882d0556a131410f7
sawtooth poisson-bernoulli plain 23 ce2c1ad00cb713c0f982e737945b6e936a2463d2f7178e9fa3a5b294012e101b
sawtooth poisson-bernoulli trace-phi 11 ef536dbf406d9246e17caf6d48b1c57f0882fa5d8a45e677cf42a326fe251912
sawtooth poisson-bernoulli trace-phi 23 247e951a5576866860b51ca76c0dd31ab85d31cd7a4653af0eb126d5e05b96c1
sawtooth poisson-bernoulli dynamics-64 11 8995d9be8d0c0d82a5d86853ca65ce967d4b5c4122e732e4ef9afaa8434cba8d
sawtooth poisson-bernoulli dynamics-64 23 548a52592c8421d3dbc1c4393c1982590952537958272a8bbd0af2b9f71994df
sawtooth bursts-reactive plain 11 f57988d132a8a19fa7cc9b4b8b2f987027878070339a1c9f12dce3079f479f82
sawtooth bursts-reactive plain 23 47d9c0e5108d354f774ec3a26212ff2ea5d4c9057aa7470ca00b4cd254d33984
sawtooth bursts-reactive trace-phi 11 42c3fc8db4ec8e7143b24b359de4e00fce53a27db233e081a23892b293db2b26
sawtooth bursts-reactive trace-phi 23 441cdbaebe589b95bb0cdac57d080cabb47f73007fd09743e69998cffde7787e
sawtooth bursts-reactive dynamics-64 11 eba619d03e774a1579858558c02fe5454e65fe0c6e590c6dd34e41fe75651fb6
sawtooth bursts-reactive dynamics-64 23 e64c734990e32757eb90dfb9adc3f2d24e4bcb4fb25722dab9059ca617877e14
full-sensing-mw batch plain 11 4c876867aa8783a44cac9fa43a42d1177d0ef1056f3a5820e5af8b1cdd82bbbb
full-sensing-mw batch plain 23 868af3a1e2388d8dc60b7896f0e450c94143f4ff6f909f17885e61e0a5fcdc45
full-sensing-mw batch trace-phi 11 4213eae9a804d58a773e2bf873f9cde42c5379a17e512fac5a97ff31d706dfb9
full-sensing-mw batch trace-phi 23 daa556a182ca597a485bb483d356c5a5ba1ecc491a6770fe2c4be25d12e46a14
full-sensing-mw batch dynamics-64 11 f3630a86f6675795a9421dc0e66f2c1868a2246347439cb03c0838a90f9667b3
full-sensing-mw batch dynamics-64 23 e1c463936875b2db5a511d7a17e9ac37fcb5fca360f04569996fdd78d9d9d677
full-sensing-mw poisson-bernoulli plain 11 c891f705add7250e81126f758c51d28fa2f8fabd45bfeddf78e8a1c9c0ce8500
full-sensing-mw poisson-bernoulli plain 23 7cfed9848537094db8984b950e2df6926b0e95a5397f0ab70a1fa402f45032de
full-sensing-mw poisson-bernoulli trace-phi 11 73133d0f0fbd8b5f83ef798c3d88e49cb795b62f91dd870f3c64987e2571ff13
full-sensing-mw poisson-bernoulli trace-phi 23 30c06f80249a3e8245f332f6dad7a108e728ec318dea4c9006e8434c2777a8d0
full-sensing-mw poisson-bernoulli dynamics-64 11 3d39e561c1ae5cd3761ff7ccaa911a465bd34aa17c484bd13a32deb171aa10b6
full-sensing-mw poisson-bernoulli dynamics-64 23 cc81913a14c57429787fa0a5bc04b0d0f5b6ab04a938d1fa631a05536f38e00f
full-sensing-mw bursts-reactive plain 11 62d1f0521e9cc281d04f799482b8d5fcd18ed0fc3026500c39962125bc166925
full-sensing-mw bursts-reactive plain 23 9fe05e4bd8dcb9a0b890482ca0810e00821b67fd659e4135f20a19dd9b9f5882
full-sensing-mw bursts-reactive trace-phi 11 560b369e909e0fa68110a7d39d0f9285ca4b99d1b5462fca513ef14a433e3f9e
full-sensing-mw bursts-reactive trace-phi 23 c362fcd1454a9d3bcd9c6f5d3f1bedbd0e9e33a0c9ac0179dcc846c3c29caf63
full-sensing-mw bursts-reactive dynamics-64 11 543890175cb6ef09d95c15cc00f84a4254c13469dc1fd5fcd638c5f91ccd9106
full-sensing-mw bursts-reactive dynamics-64 23 da63e559c30322c279d473d9d413812341efab3368ed65c4d4019080ab9f1340
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
