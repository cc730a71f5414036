"""Pinned scalar results: the reference engine's output for fixed seeds.

Every other scalar check compares two runs of this code with each other
(serial against processes, with Φ against without), so a change that
alters every scalar result in the same way passes them all.  This module
pins the results themselves: one SHA-256 per run over a canonical JSON of
its packet records, ``num_slots``, ``drained``, every collector counter and
``jammed_active_slots``, and the Φ and dynamics values as ``repr``
strings.

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
    "phi": {"collect_potential": True},
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
    payload = {
        "packets": [
            [p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens]
            for p in result.packets
        ],
        "num_slots": result.num_slots,
        "drained": result.drained,
        "counters": [getattr(collector, name) for name in COUNTERS],
        "jammed_active_slots": collector.jammed_active_slots,
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
low-sensing batch plain 11 d7294d243c588a2607920799a55c69cd6cbe9b70025ecd3c4297b2c3f9428eea
low-sensing batch plain 23 cbf411a1e4ef334e55be967d275e25c07eb8729d34ab25d657f155e6f1664876
low-sensing batch phi 11 53b74b773c4b098bd48be5eec2e29fa1c8e64d303687353867bd4c01f2a0a00d
low-sensing batch phi 23 437800b1a92adccb5747f6c80796fb245536205a450432afa51ed6775246d4bc
low-sensing batch dynamics-64 11 8618133210f3939fbc983026d321950e58d79d0a88bb8db8531f052460cb0a48
low-sensing batch dynamics-64 23 e5a0ee3175141fef48fc1db52b54b30b522defd24b58c9a04145782a94fbc71f
low-sensing poisson-bernoulli plain 11 c3098e0535f73174e9930025be4a62e1ae525f9de915708579915a525316d10a
low-sensing poisson-bernoulli plain 23 a185be76b464b6562f0bccca46598239a4b928d73e1b386679e28e5cb4fdef31
low-sensing poisson-bernoulli phi 11 2967b0acf0def912d00964eaf66813622e83afb3c5ddde49ba21104d2b7385ff
low-sensing poisson-bernoulli phi 23 96287a0d29efef6858c70de7bef1d5938699c91fa9d0210ce923ead0ff5c9adc
low-sensing poisson-bernoulli dynamics-64 11 eab2e879b7a394edc0f2a090d3cda86a5c3534c7f2577bdb5e24e39baf93bbba
low-sensing poisson-bernoulli dynamics-64 23 79558aba74c6480c699e7614ca141495c05b67b3ca6fc275ad008cfe842d2b56
low-sensing bursts-reactive plain 11 494aac8671647dfa5c4726bd888004a88672982158ad84a0d2ca560a6d36fe63
low-sensing bursts-reactive plain 23 3a0609eec80ad08ab757b96eb6625312ddde203221452beb4a20d6b1990005aa
low-sensing bursts-reactive phi 11 510fc3e629d82f3d9908cbc7791280494852cae2c8ac37106bdcc13cf90f2d66
low-sensing bursts-reactive phi 23 7d1c88cdfe0dff090ce76ed3d64fee810228b0ad4d7abdfcb02d1d608fe0135b
low-sensing bursts-reactive dynamics-64 11 6d672a29aae19a8777123377503fa040d93f411490966faa49018845759fd11a
low-sensing bursts-reactive dynamics-64 23 f00557b9574faf0faa44491be282f9eb76d877e96b0a43031a83e57085dbf9d8
decoupled-low-sensing batch plain 11 37d1590132081f6383f4cef85fc0c282c23e9057e88fc8ac0bd5f283f88ddc89
decoupled-low-sensing batch plain 23 65e767ae4cb1590e577e6b731241a9cd8126b5116e44294f04c3573ca17ffe0e
decoupled-low-sensing batch phi 11 c578c808504de8044a2811c8b4cd9c512a91e63592c51f6cbd7b2c7f00ff0419
decoupled-low-sensing batch phi 23 6e26739cf7226d65b92eef24636a70db567d1229aee3d1948a7c10acad70049a
decoupled-low-sensing batch dynamics-64 11 2e5bab4a295b24a93860b2f0c8e719bfe46457cbf8c4e9ed9fe20de1129e85d2
decoupled-low-sensing batch dynamics-64 23 3c37ced438710473358cb506e579317c749c17a2e364613b45321294ac2fab1f
decoupled-low-sensing poisson-bernoulli plain 11 7e481f229f79304371a0a01a25d62f9a7978a26c1359db8871aaa4e8f609aec7
decoupled-low-sensing poisson-bernoulli plain 23 ca4cfc9e9ca925c36f33781330f2f38e72f53ffef6bf34bec85a1961dc28bb2f
decoupled-low-sensing poisson-bernoulli phi 11 0a2bcb0c3c7ceeed7f3c31070dcf951cb4f865f62570dcced256d7da6bc40a77
decoupled-low-sensing poisson-bernoulli phi 23 924b05885f5b59e599c2200c1514d0f1a0e2c3b6d2e864a05f62e96bbed3eb91
decoupled-low-sensing poisson-bernoulli dynamics-64 11 0e55f9208aaf013cfd4f26de069b3cbdc4e559d02b2458f7470d4319f4b3ce00
decoupled-low-sensing poisson-bernoulli dynamics-64 23 acb1033c0755d8bcbf64170ab89295622eaefdd3f79281ad713cacf35e656d3a
decoupled-low-sensing bursts-reactive plain 11 dbe8adf6f47a77f23246a46d8f17d4291d17c4117bf86ee3212d5decce3c91d1
decoupled-low-sensing bursts-reactive plain 23 5176ae671e62b59c7f73e70d8f27cfc54981d4911e69f36986f6a0655a3a3455
decoupled-low-sensing bursts-reactive phi 11 55e53cd82524f1bb483c47430500c24b8b51cf6e1dce8987cdc7290d1dc2e6a9
decoupled-low-sensing bursts-reactive phi 23 a04c253d6ae37928fdf5b2b75dd9401e7bfa7bde37eed2e251ae6f007df24ec4
decoupled-low-sensing bursts-reactive dynamics-64 11 a918ce9b4dfd59972065f450586fa7fd6e1db8b035220f9a6dca7f5c2cd7a39c
decoupled-low-sensing bursts-reactive dynamics-64 23 f444cf1f5e6bfe2abc8104ccfdb6ba7a1db8dc7df1544574b5b2da60ba46a8a5
binary-exponential batch plain 11 6d76bd532bbfc8d8cc310848ca6bc7e3f9067cb40f5caf108e60e24f3912ca3a
binary-exponential batch plain 23 d407e8e89f38272493e23d9fb5b5138aa4ddb77665f30904e167c6e4dfe19d77
binary-exponential batch phi 11 5989f7d8e985d0ea6793149924df955c325b41ce80efc57b39c4e638d58a3b22
binary-exponential batch phi 23 30f613aead7e319020b0f44912265a22a28ec3503031a1a099ab238304cdabac
binary-exponential batch dynamics-64 11 1719df1e5861bf847cc61e9dc578ea0cc938c5634a1dcd6943ee940312c0a137
binary-exponential batch dynamics-64 23 28ccb511ac8da73f5bb07a1881b91de8a05a335d71cd8d8e7f8668768bb5fb43
binary-exponential poisson-bernoulli plain 11 5381134129ab27a6af10fc4ec784f27a48ea1897e3dc8121aa3594a936836ff5
binary-exponential poisson-bernoulli plain 23 74712a2d14c1132576a92bd9ea17f6a1e9920095473662155247dcd1f2e75285
binary-exponential poisson-bernoulli phi 11 08a2f2d08e4a3605d90b4a5ab9abd0baec7b417cd71972eccace47f86c9f8927
binary-exponential poisson-bernoulli phi 23 38735a3e5af1254f1398a2b4546c116cf423ed8f23e46bee6651d2483ff93c75
binary-exponential poisson-bernoulli dynamics-64 11 ae9d7ba70af126a4dc2c578d444cf4dba5441d6dbef518890aa2bc423d7de4d7
binary-exponential poisson-bernoulli dynamics-64 23 774a65c2c9499c770c8edd946c393d8a35aebb71aeb0c5c49067b0b7535dba14
binary-exponential bursts-reactive plain 11 911f354b7bbef9cc85eaa1f018b35c86ea5547b2bcf8bb66cd89a42a3e8a52f5
binary-exponential bursts-reactive plain 23 adfc8847b727ef4cf135f7c7d941b97621d1f99b77789696ecd630b40b8a97e2
binary-exponential bursts-reactive phi 11 d30ca54cd003e88b355365e53e9954187ac642d051575a2c524fdf9b3aa3245d
binary-exponential bursts-reactive phi 23 62f469c39c2b57c8b4b3d2ffe2864d17fa516e741ab0b91b100f3a2d8c716d62
binary-exponential bursts-reactive dynamics-64 11 bb0fe5948ea636a3affae0413d428306e5437e93a4e5838e9ae76ffe83b22309
binary-exponential bursts-reactive dynamics-64 23 1ec289d7b9b5e74e9021ba0c4248e92c610d85e492d25d6cfd16d9183c943acc
polynomial batch plain 11 ea1a78b19cd5de5ea34a1b0ebc8b08122d01cf719acae185d404dd5d272a4e09
polynomial batch plain 23 97b80ad7e474f8cabbcd23d8b9ebc621f1e38e333ba5bac4a24a04a6fdf5ad98
polynomial batch phi 11 c6ae3895ab8556df6b5b64ab896fe0bd790c31276f37403d0ec10a67b169e841
polynomial batch phi 23 c1d1ba85345dccf821aa6738580aff28bb73bb74520fa9032403470648b93549
polynomial batch dynamics-64 11 01a2f84fcbd9e6b999d56612a86870a792b34d4ae0d4977ee2a7a54bbbc08117
polynomial batch dynamics-64 23 54ecc376e010659fcc45d8fc452280f6cba8f877e548a14fd9ac89b87541105b
polynomial poisson-bernoulli plain 11 5381134129ab27a6af10fc4ec784f27a48ea1897e3dc8121aa3594a936836ff5
polynomial poisson-bernoulli plain 23 74712a2d14c1132576a92bd9ea17f6a1e9920095473662155247dcd1f2e75285
polynomial poisson-bernoulli phi 11 33d98db86d0208dc7d50b116111302d0a8f04da591e963707e07b7c14ca5080a
polynomial poisson-bernoulli phi 23 a4403eafa67d7b07df9e73393471ba9d4ed87936f0910243afc852264c75f8fd
polynomial poisson-bernoulli dynamics-64 11 ae9d7ba70af126a4dc2c578d444cf4dba5441d6dbef518890aa2bc423d7de4d7
polynomial poisson-bernoulli dynamics-64 23 774a65c2c9499c770c8edd946c393d8a35aebb71aeb0c5c49067b0b7535dba14
polynomial bursts-reactive plain 11 6d0189d8848ec7e4a674b2b5e7a82b294d147a5bc8ba31f6b4aea8778dc7483d
polynomial bursts-reactive plain 23 87eaf30d37e378a7f344188c06a9520adfadd8292362cb53cad67e0ec5ab750b
polynomial bursts-reactive phi 11 81bc88fa828035c3240e75ef5712863c056f36c2e05577e1fc08510020995e9a
polynomial bursts-reactive phi 23 eef488a5df0a63b1463bd059190ded2ed6413c51ae97bb7310eb58954048943c
polynomial bursts-reactive dynamics-64 11 2bd1c2d4e7a061f9dfb48e6926f9cf8db96d574df6ab695e24983e19fb966068
polynomial bursts-reactive dynamics-64 23 9d4d3eca67feb745a3b06a3802e6c11fdc5ca4a26de80c3b292054a0287051cf
fixed-probability batch plain 11 699d88d6db8dcc665e2eb8b4db0478d42e75a3df03d73d16ad5070673634109e
fixed-probability batch plain 23 bc8311e614e0fa121ef22012ebed0e39ef7cf535621f8c107ebf37965b08629e
fixed-probability batch phi 11 cbd7a400fdeec231a260ee7044683059054a9115891c6c83390c23c288412d20
fixed-probability batch phi 23 d7bfc069bc854482f068448d5c97e4756e2f6559b33875ede5e678d6e2ae1695
fixed-probability batch dynamics-64 11 9093dd23086de194a33632f07b98ebe33a9bebd831425b113e6bfda1e97a7519
fixed-probability batch dynamics-64 23 f0839873f7648f0e478f68e2fb9707b57dc53dbc4e0c72e0b45c1511bda1402d
fixed-probability poisson-bernoulli plain 11 32c32f5946a9a080bcf6fca78835af919727f508034fe02fefc83dacbeafe1a3
fixed-probability poisson-bernoulli plain 23 b8348ceed3eca7683bbc5c5f249b8e82f9ef489b8dc8013087aafbd621ae28f8
fixed-probability poisson-bernoulli phi 11 d4e9dd8ee1c4630258fe663abd47049a521930ec8fcca4f9fec63e58653bc7a0
fixed-probability poisson-bernoulli phi 23 377ce7a9a10ad871b380f9895df1eac6f4c5a48907ab26d5653db759fe43e82a
fixed-probability poisson-bernoulli dynamics-64 11 6f591783e8b6c67ed235c17cf9ac65e0f3ceb0a4eca5f31313fd118c3b3e6e7e
fixed-probability poisson-bernoulli dynamics-64 23 5c4e49c43f3b52447272a9c246bccbd0b826248c3ce7e03ffff6acecaa52cac2
fixed-probability bursts-reactive plain 11 4881394f236098f66c2ced89120b72f6aca5e3be8a10a1456a3f46e99c2e7796
fixed-probability bursts-reactive plain 23 8e6ac1d84a8d2905d47fdf286070368071595288b1b4f3445d4dd33094c1050e
fixed-probability bursts-reactive phi 11 afa9c3ff6479e0314f8737ef48288d51f3418af2a8a3dab46e58dd292b9be4f9
fixed-probability bursts-reactive phi 23 ce486a0cfae864ae2a1cc404837a1088332312cbcde9a2c0f6fa36d8f906823e
fixed-probability bursts-reactive dynamics-64 11 8fc014fd468929b4a946ec35f8007c37bf494780378beb00729427dcaa557326
fixed-probability bursts-reactive dynamics-64 23 69bd5b5f48774ae48353a1c4cc10ef8b8c390408f5bcd8cb2a064d09b85b4a1a
slotted-aloha batch plain 11 4bcbe0f9bfa79c9be9cd2f859c57ad79ea93b8f30676342d3d3a33385af39415
slotted-aloha batch plain 23 b2a396b0c2760aabe644aec808f7528783eb0954a66db6494cc15dd314eb03e6
slotted-aloha batch phi 11 e1f9c683c80284d669b30ff3ce256117da6188af1352faa797e8e37b1bb36f56
slotted-aloha batch phi 23 1033c1713ebc025fb037b965785f87e26fe7b0c1649572e398807ab075bb20d6
slotted-aloha batch dynamics-64 11 ca4c06699a62289c07b42e584eaaa3699dd5b1ad7dcf65574f9bd40c7bbab500
slotted-aloha batch dynamics-64 23 0db2d0aed6fab2d592676f513b6f8b0224a460fc33a8389bb3d8946cbcefe2b6
slotted-aloha poisson-bernoulli plain 11 62295015935163d0a0f2fa2715d437278a9f0cd4ce06bdfdbdb82008b848f434
slotted-aloha poisson-bernoulli plain 23 562e9b968d52e127346077e7be7e24d5451acb3c8a96f7c5a702fd1183d15d8f
slotted-aloha poisson-bernoulli phi 11 287cf14f7b01442b18b991698825f151bb20e9b109306b17ceca71d955bdca55
slotted-aloha poisson-bernoulli phi 23 f6476065035da1b4e44e94cd125cd72bebef2ab09da4476c0ba96237008d1d66
slotted-aloha poisson-bernoulli dynamics-64 11 1d5712bf1932a389f5321c3f2d04cdcebb88e533bf66b5171b5df2a8e23fbe45
slotted-aloha poisson-bernoulli dynamics-64 23 f7a8f3acc1905824262226b7da076b5c34e55bbc93a34c71491c18a0616fd3fd
slotted-aloha bursts-reactive plain 11 6fb737358d53ad8bb9e86a6216a408dd3622e628ace104153a38cc31e4903d3b
slotted-aloha bursts-reactive plain 23 49bc32358b941e4799ff110add41d61a0b2a4a2f6cc47f2a5105b26b3312ca2f
slotted-aloha bursts-reactive phi 11 c58d0947c28a56ae6abbd62e4091543eb2a114ddafdf7c3593be074863b8bf6f
slotted-aloha bursts-reactive phi 23 ab420528fc23336aadf417feeb8ed25e553e031e506ccd6ce4770a36f9ab26ed
slotted-aloha bursts-reactive dynamics-64 11 4118d1545a3aa68e86d9b539aa6846059263a739e8209c6b78d6dcf6f6b8e540
slotted-aloha bursts-reactive dynamics-64 23 9db1ba57a6ad4d856477c1fa92477b256565e83fdf8d0d3a3a4891cd8d5eb836
sawtooth batch plain 11 cbb65fc48ff8758911152afbe018aba8d7b2d26def30540bf9f90054d3095467
sawtooth batch plain 23 08aefd072f972cab04306b34b9172ad63a00842ad3423ade7f8f4d06d240136d
sawtooth batch phi 11 f5960cde2396ed87a7efe8660ba298f0fd9cfbc9138eb10eb96b3d2029902a59
sawtooth batch phi 23 b1fa4222f8e7ba909de0c2728c8b1c3597012c5bc36879274bafdd46ddb09b95
sawtooth batch dynamics-64 11 97926443c363c05e0ccf59ce7f51e104371ede98203110f915eb55d5e556eb8b
sawtooth batch dynamics-64 23 8d1df89fea274873ab1a64115d41f31289dfbb452e6371b79995a7f20de764f8
sawtooth poisson-bernoulli plain 11 a733c2931ca9fa050f4f50fd02589bed7ceabe3dafc78fd61832f44e8ea80a26
sawtooth poisson-bernoulli plain 23 72fe9eb24a6a55f72e0bf89b55b070ea44390ccf6ac0a6bd5d7e912808026554
sawtooth poisson-bernoulli phi 11 4fe359e22f609fbc989f327311e94f3c41f7515a563a897e3ac13ca4abaf3242
sawtooth poisson-bernoulli phi 23 d31563918870b00f2834f8a3edc67bf115d3c56c91aadb5bacd3a8496285787d
sawtooth poisson-bernoulli dynamics-64 11 ace8d122dacb7c170b823f9d34fe6beba0321319aa48456631cbefc980015eac
sawtooth poisson-bernoulli dynamics-64 23 60146d4d3a2cf0c70f69b4074e70d69c76bd3f4c8984047a7eac4b5affdea3d1
sawtooth bursts-reactive plain 11 4654e8800f1395f051b7addb67805739a6d56f3cc04ef060f1715e565886a3fa
sawtooth bursts-reactive plain 23 c383d5c60bd72fa6618da080a5272e8a2fa9dd2d51e681e6b31f29c041c986b4
sawtooth bursts-reactive phi 11 2307df461dcb12066003f473ef44eed1fc43d5556aa72e427ee94a821798bcdc
sawtooth bursts-reactive phi 23 edc13f131b78225b8f5de89dd62d8f794fca47c710f89c585ce05bf635004011
sawtooth bursts-reactive dynamics-64 11 3b96a0ec559df35ea73b1a6432c430c406fab984e9c7fbc9a481b425aac2ab60
sawtooth bursts-reactive dynamics-64 23 6fa174e086b963ce7d908fa1229ab223161444425862a046d36ddcf4e52e4f92
full-sensing-mw batch plain 11 a4c904eb7a16094540afb8a4aa60a8ec682f3f41c08a5467a2527acf4a32625d
full-sensing-mw batch plain 23 8f2a7c919fe305cf743e1ab90813ad0c72a167525bd012ff212fcedeab7536d3
full-sensing-mw batch phi 11 64fcaad4d95f387dc4abe4c8c7c9d77b8ce2e03aad5e96fdfe93004c6a6424ce
full-sensing-mw batch phi 23 9f0b304b5f9944dbce27c853dc01c61cc64c71fe76c7ce5361311bc16ccde11a
full-sensing-mw batch dynamics-64 11 abc0eb3e555b7a8781f0561f8d789a6f1ac9650c6be58320168b47bb15074dbb
full-sensing-mw batch dynamics-64 23 1ecc34b2556e7c5e1a140da0cc4eab04985268d75590ad8bdb9afc674b49f0d5
full-sensing-mw poisson-bernoulli plain 11 0e4734c084c8c71f01245625d55af4a9b9e0643b484a6222a31ef3225d43dc4f
full-sensing-mw poisson-bernoulli plain 23 f331fa4b85c71d672122e694b1f6bc337cdf259bbf4f9906737bddfad9022bb7
full-sensing-mw poisson-bernoulli phi 11 9924ea30055175879883993cdcb4b8367c8a6ef202fd450ecf57fc0cc42f6430
full-sensing-mw poisson-bernoulli phi 23 a9526a587cb6da5b7198f4bf1fd7880b4fe0749186865d4ee101a551f924da96
full-sensing-mw poisson-bernoulli dynamics-64 11 02fb11f6f66d14e5600afd85fa86f99ddbd633e3bac15e40b6e920c2df0c1243
full-sensing-mw poisson-bernoulli dynamics-64 23 eb09e38cc9957cdf5a23df79de9eebdad5ee3aaa58b3b75df9cd1f1cd9baf81d
full-sensing-mw bursts-reactive plain 11 0ef60db7385e9aeffc4bfc8afe8a0bd1b039e89af8a300d7fcb6c56493a06ad3
full-sensing-mw bursts-reactive plain 23 6584533a3d327f4fe42c3045369a42dea33f5a8581676283acf77b94c4f6a932
full-sensing-mw bursts-reactive phi 11 3a1f409f3210db9f3f68fc133d6e55f9d5db5b1e2727b682a15e5a2e40fcf9fd
full-sensing-mw bursts-reactive phi 23 8dca030a2aea89ff385f198c6dce39ee91c58648f877debf498a208e69a98d8b
full-sensing-mw bursts-reactive dynamics-64 11 9b6e5b156240245f408e178ad6b4a9893d1eb67169d9823adcebc2a3ce208862
full-sensing-mw bursts-reactive dynamics-64 23 66c1b1b7a3f981a36f0e1c0f5d72a633ab6e7b39853bdf29375b59070d572b5e
"""

PINNED = {
    (protocol, workload, mode, int(seed)): digest
    for protocol, workload, mode, seed, digest in (
        line.split() for line in PINNED_TABLE.strip().splitlines()
    )
}


def test_pinned_digests_belong_to_the_scalar_layout():
    # Results that change on purpose bump the layout, and the table with it.
    assert SCALAR_LAYOUT == "scalar:3"
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
