"""The sha256 of CLI outputs, pinned byte for byte.

A change to how the writers chunk their text must leave every digest as it
is; a change that means to move bytes updates the digests it moves and says
why.  The cases cover every subcommand and format, with and without
--amplitudes, at L = 0, 5 and 12 (graph stops at 5: L = 12 is above its
export cap), and evolve and time-average at L = 16, where the CSV writer
yields many chunks and a JSON table many grid rows, with pst CSV too.  The
starts are nonzero, so the grid rows and columns are permuted.
"""

import hashlib

import pytest

from hyperwalk.cli import main

DIGESTS = [
    ("spectrum --L 0 --format json", "9092c4335282b7b3ad002c3de9aceba8a0eedec792eb281c4b6bb0ffb7a2e3ae"),
    ("evolve --L 0 --t 0.7 --initial 0 --format json", "c4ee533308f4da1f85d4027da7e6ddc6d6083a35bf51e1e798a955e561d96322"),
    ("evolve --L 0 --t 0.7 --initial 0 --amplitudes --format json", "e044515518ca4168aff6c312dc186a54941626b041f3801582ee93685c29fd65"),
    ("time-average --L 0 --initial 0 --format json", "59b5890b527c9fdbb10ee7d3fc252e9569d92a59d106d08d097d240d8cda8282"),
    ("pst --L 0 --from 0 --format json", "0bbf6951449c107ae64ea4ce9609b210b0e983fbbba4e6fe0eac47a0cf20fefa"),
    ("spectrum --L 0 --format csv", "61b5288ec8d1ed53233551991410110cfe868d9ddb83cf1be3f052987951d9fc"),
    ("evolve --L 0 --t 0.7 --initial 0 --format csv", "9f45735ead9014910600928ec0dddf330482efc36b264f68936f6121a0f64c24"),
    ("evolve --L 0 --t 0.7 --initial 0 --amplitudes --format csv", "348e63bb60056bdc9c3c9b6f8bc36891e1e10128788d537cf444385e1c7ffd5b"),
    ("time-average --L 0 --initial 0 --format csv", "bcf3455a67f5afd34f07646d414cafcb8e653dd93dcd44883927df3bf0bf309d"),
    ("pst --L 0 --from 0 --format csv", "b1ff580119e3fab52e72cbec16f38c4efabf282ba6878ed44d8b79f1d4732edf"),
    ("graph --L 0 --format dot", "16a20b485f8600226da3646899fc1eec2ec782973d6713d16341a991fe893f0a"),
    ("graph --L 0 --format json", "3a9030097c5ebdad5f663add1c0b92e2abd482906e8d0e334d67ff06dac46edb"),
    ("graph --L 0 --format edge-list", "09e2b8540528625e4886cfd03fb6155bc0c937e05f5162b4dcd52f7fcf0f8efe"),
    ("spectrum --L 5 --format json", "2498088525aa54e9cdb7eb63643b533fd110b7cfc1c7060f810f5cfd2038e1da"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --format json", "10e98a7e6f6598ea2936a6e866baa904cf0187f083b2d1421e1b2113c84c8473"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --amplitudes --format json", "8c6a8a74ed5b44b2738d527924175900d38fe1eb793628a47ee2875d85ae3ed0"),
    ("time-average --L 5 --initial 0,2,5 --format json", "af759886c78598ab5220bfac0d705d2c89ce05317ea625d29fbfe7ebfc4436f0"),
    ("pst --L 5 --from 0,2,5 --format json", "856489f9d627c5f3a7f16176196b0355c177d9a67343c76d9a85caf4ea14bcde"),
    ("spectrum --L 5 --format csv", "f748d161be85e573e71b8798eefeb817bc0295d6054b30aa877a17986a1e4a71"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --format csv", "527790f231d0db9232e89ec474af5d77d53636149c2f6897ca85cc1428d6a478"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --amplitudes --format csv", "aab6721fa117182c388556f314adf165298d52eb025a770955e2f69ae7e729cb"),
    ("time-average --L 5 --initial 0,2,5 --format csv", "07cdfc50fdccdb09bb5874c116d11b10c1553e8f4fcd82027c11b0253fe8c34a"),
    ("pst --L 5 --from 0,2,5 --format csv", "6bcd3a603aa8e291b47bbd3991a9e4d036f7f63b31082f75e0aed80ff5ff6c3f"),
    ("graph --L 5 --format dot", "94cf4c8815d81ddb91c41e017fe981f1dcb1e5642798abee6fc1ae7cfe5b3f3d"),
    ("graph --L 5 --format json", "054a8be6b0e83d43e41dae60a05248160af75fb988832318e2fb210c8ec756d2"),
    ("graph --L 5 --format edge-list", "81ac732e13839bb1b2ee4e1ceae497f3f31927c9379dd39a2dd5179b028ec40d"),
    ("spectrum --L 12 --format json", "bc33aa360b631037a58d2b783505b93b14a0b23ca7a3eead9331ad2c01ebbf84"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --format json", "5f58e90be9afc95294fe1814739dfda43ceb1ec1329614eb56138d7f62fa5acc"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --amplitudes --format json", "fe5cd1f4c4b395929d5c9ef3c08a9870700468ca0c9c846bf26e5b74f89441f6"),
    ("time-average --L 12 --initial 1,4,12 --format json", "20161dfad79ccfb40bddcc793749608e46577575e411f867b610176e91d29964"),
    ("pst --L 12 --from 1,4,12 --format json", "8bb8ffe078c3c7f17cbb1e88723ad6f58ad2fd97e53175e747b0e5a5f58fbe5c"),
    ("spectrum --L 12 --format csv", "bbab4c6bf5103e2b09b5ecf80869ea5d00083534cfa57cad90f8c39b67eb0dfa"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --format csv", "1b1b0704f249288407df1566d2be1b796ac96e7c77c3b0f29cf62b201322b045"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --amplitudes --format csv", "e181e9307975df27edd31cb3de54bb551f01ba826c2514d1d113359c7a056729"),
    ("time-average --L 12 --initial 1,4,12 --format csv", "09f95caf4ad430a9f2de53a474525d88f9c75885b50958df91242eab25168350"),
    ("pst --L 12 --from 1,4,12 --format csv", "782370d41ced7c37a27f2c089de93854fab42af5f9620a9a9b6b3afba17aedda"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --format json", "ee4e911569b7c949015b753c865bc22d3d9ffa7f5221565911c438cb81129b39"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --amplitudes --format json", "a817cbde124e48583f13731cd3653b2c34c18debfa0bc9f87e27b6e0275036be"),
    ("time-average --L 16 --initial 0,5,16 --format json", "8d6ba19a25dcba165fcabf036f3745a912a4270803e15234e93a634c29e51aa0"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --format csv", "b76bbc487062bc5c44a9d5a7653b383a0536d87aac84d8891cd0b08fe3c40989"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --amplitudes --format csv", "188a20f56983a2e8260d993a8c76059bccd5a69be2451dc7a68a778529808f42"),
    ("time-average --L 16 --initial 0,5,16 --format csv", "0be383248bcc208062ee74248662bb71a57aaeba015f8542d0dcf7a844b6a832"),
    ("pst --L 16 --from 0,5,16 --format csv", "f513afd1b09cb395d6fbebf9181fe34bdfe2c61329414402b3a19e97e6b66c55"),
]


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_output_digest(capsys, command, digest):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
