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
    ("evolve --L 0 --t 0.7 --initial 0 --format json", "00c5d9b4bc51282318dc714a717470c464091658c5b09fa369c81a5cfb34be7a"),
    ("evolve --L 0 --t 0.7 --initial 0 --amplitudes --format json", "9e01b5a173f80a3a3e14d58528cde10d99682aed7b1678ceedfd6fa2119e8140"),
    ("time-average --L 0 --initial 0 --format json", "59b5890b527c9fdbb10ee7d3fc252e9569d92a59d106d08d097d240d8cda8282"),
    ("pst --L 0 --from 0 --format json", "0bbf6951449c107ae64ea4ce9609b210b0e983fbbba4e6fe0eac47a0cf20fefa"),
    ("spectrum --L 0 --format csv", "61b5288ec8d1ed53233551991410110cfe868d9ddb83cf1be3f052987951d9fc"),
    ("evolve --L 0 --t 0.7 --initial 0 --format csv", "e0cd071b88cb36cfc3ac97e10064b38b11ed566a77c3408004b85f2d83d2df6d"),
    ("evolve --L 0 --t 0.7 --initial 0 --amplitudes --format csv", "464fd3783784727a82923a37203d3869644257f88e6042dd8b9643564723794e"),
    ("time-average --L 0 --initial 0 --format csv", "bcf3455a67f5afd34f07646d414cafcb8e653dd93dcd44883927df3bf0bf309d"),
    ("pst --L 0 --from 0 --format csv", "b1ff580119e3fab52e72cbec16f38c4efabf282ba6878ed44d8b79f1d4732edf"),
    ("graph --L 0 --format dot", "16a20b485f8600226da3646899fc1eec2ec782973d6713d16341a991fe893f0a"),
    ("graph --L 0 --format json", "3a9030097c5ebdad5f663add1c0b92e2abd482906e8d0e334d67ff06dac46edb"),
    ("graph --L 0 --format edge-list", "09e2b8540528625e4886cfd03fb6155bc0c937e05f5162b4dcd52f7fcf0f8efe"),
    ("spectrum --L 5 --format json", "2498088525aa54e9cdb7eb63643b533fd110b7cfc1c7060f810f5cfd2038e1da"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --format json", "0a0e8923a6a1eabe809ef5528a5163947d2cab931465bb4c97bca5158e9707bd"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --amplitudes --format json", "b0a56a759765fbff5f316850b305579ca7f0b7b36f988db5f18a3fba4357a040"),
    ("time-average --L 5 --initial 0,2,5 --format json", "af759886c78598ab5220bfac0d705d2c89ce05317ea625d29fbfe7ebfc4436f0"),
    ("pst --L 5 --from 0,2,5 --format json", "5a22e2ba7e5e3f5ec463906cfa7416277648d1e07779b8c1272e10827825856f"),
    ("spectrum --L 5 --format csv", "f748d161be85e573e71b8798eefeb817bc0295d6054b30aa877a17986a1e4a71"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --format csv", "b2d0afcb1d3be6d46a7a396c05276fa307be013e9c462dfedc583948d30b7630"),
    ("evolve --L 5 --t 0.7 --initial 0,2,5 --amplitudes --format csv", "c9cdee66a8146eb7e4fc2a8c8b4286e4630b425e3c82b66df99ef835904264f6"),
    ("time-average --L 5 --initial 0,2,5 --format csv", "07cdfc50fdccdb09bb5874c116d11b10c1553e8f4fcd82027c11b0253fe8c34a"),
    ("pst --L 5 --from 0,2,5 --format csv", "24aa21292d79ef110ab5bcfe0d120a691f57d4534f0637c1e01f8b65487b9bf2"),
    ("graph --L 5 --format dot", "94cf4c8815d81ddb91c41e017fe981f1dcb1e5642798abee6fc1ae7cfe5b3f3d"),
    ("graph --L 5 --format json", "054a8be6b0e83d43e41dae60a05248160af75fb988832318e2fb210c8ec756d2"),
    ("graph --L 5 --format edge-list", "81ac732e13839bb1b2ee4e1ceae497f3f31927c9379dd39a2dd5179b028ec40d"),
    ("spectrum --L 12 --format json", "bc33aa360b631037a58d2b783505b93b14a0b23ca7a3eead9331ad2c01ebbf84"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --format json", "e6a440a2973709478f6a18a0810e95725c3f90017cbf14af46850ab4b1da5cd1"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --amplitudes --format json", "379a111b882a238063af1325907e3e06906b17b8b7d4abb16fa1f890a0105c55"),
    ("time-average --L 12 --initial 1,4,12 --format json", "20161dfad79ccfb40bddcc793749608e46577575e411f867b610176e91d29964"),
    ("pst --L 12 --from 1,4,12 --format json", "448005b0f67c6132617484ac6a1a4e2708cf15ee045ac35bc195979ef8117a42"),
    ("spectrum --L 12 --format csv", "bbab4c6bf5103e2b09b5ecf80869ea5d00083534cfa57cad90f8c39b67eb0dfa"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --format csv", "a40d89b40cd98eabc7a3f3aa9c81f1806118d0baedced95125422e8ea72ea9dc"),
    ("evolve --L 12 --t 0.7 --initial 1,4,12 --amplitudes --format csv", "e3021dcb5e8468a70d4bb6fe5f2b0ff47b51f16719dc3f55cec3f40406c5ac13"),
    ("time-average --L 12 --initial 1,4,12 --format csv", "09f95caf4ad430a9f2de53a474525d88f9c75885b50958df91242eab25168350"),
    ("pst --L 12 --from 1,4,12 --format csv", "066cdeb6c27c43f7703e152310ee4a80e62c735a9b7148c20a8fccb9b30d38c9"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --format json", "248aacf4ff6dc340135a1cdf8c2906dfce81ecad779de0812034f0418fe523d1"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --amplitudes --format json", "98d0a24b2a80e5c3e4ec26d26e69d50a904d8e2d8fd1035e7676f990c0d22c28"),
    ("time-average --L 16 --initial 0,5,16 --format json", "8d6ba19a25dcba165fcabf036f3745a912a4270803e15234e93a634c29e51aa0"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --format csv", "2e7f352c094ca8cf786ee15247d0f8c748fde998a32c318d04656dd383c59fdf"),
    ("evolve --L 16 --t 0.7 --initial 0,5,16 --amplitudes --format csv", "0bebdf78e6f4ff3884278a9805f43f9392a996fc42e583011d2a39ec6df2df0b"),
    ("time-average --L 16 --initial 0,5,16 --format csv", "0be383248bcc208062ee74248662bb71a57aaeba015f8542d0dcf7a844b6a832"),
    ("pst --L 16 --from 0,5,16 --format csv", "5062a93e0ff1b7dc160b6c87fbbc5f501cab05768bcbb1ba3b4453d667b3181f"),
]


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_output_digest(capsys, command, digest):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
