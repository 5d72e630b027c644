package main

// Output digests pinned from the parent commit. A run whose output differs
// fails its check; a change that alters these outputs on purpose updates
// the pins in the same change, from the digest the failed check prints.

// sweepDigest is the SHA-256 of `kelpbench -exp all`'s standard output.
const sweepDigest = "81d641a5fb92af612c9c16f9bcb567e108f155626aa1f6ba0a034228aeda9087"

// fleetDigests are SHA-256 digests of the fleet study table at 20000
// machines, keyed by fleet.Config.Seed. Seed 2, fleet.DefaultConfig's, is
// the standard output of `kelpbench -exp fleet -machines 20000`; the other
// seeds were rendered by this benchmark, whose seed-2 table matches it.
var fleetDigests = map[int64]string{
	0:  "c2f8d5e4bcb2ffabfb51ecb5dc6f9e851dcc24a1022bcecc995ad60ae9afe646",
	1:  "f5d9089b65e5a97717266d667deacc9aa97a2db2de978b60583299cb60bfa2a9",
	2:  "6c742743d1cf7d06ab3eb693210f4bd079f3624db0c8af5b20cea6929447c332",
	3:  "7fa04a2c1915d563cc89fb7852e0aca7fc4e91395316f8018ac8f8547b6c9640",
	4:  "a23ab92c2d82f664130bb5812b35b6e0ebe7796009d898c316a8abbc35cb8caf",
	5:  "79cbc59793958f2967c67cdcc316fe6f5181625a5a112ad82277809e600efe48",
	6:  "4e316c3a8c3ab41dd53857014b1dadb244628cb65fcc047b0cb878af66944e33",
	7:  "59c25470857513d6616bbba7f6089806aec2ac2866f1fc2dabdf5041b4b3284f",
	8:  "87f09961553e11ae63a42891a88cb55ae47b339f93f733bf254a37d13709e409",
	9:  "13c03fbdcd90775e39ac46b88d817adccc658bcfcfb63feb4f3debbfa1b2ede0",
	10: "8f4e6464ec055d79c3f470194947efc6acef8f6d5773258dc0ae27fb4f976f7f",
	11: "c9ef24b5f487481cfd915c8aa16303d6fc2ae084922e2b41eb393c7182364411",
	12: "4b62467c674b116a9c5ee05891eec9aedb5ca138af6aacbdb73cfbda3c2e4446",
	13: "25d904a180a19c6a4994cab8dff889f694bd96f91221432eb47c957166fc7ac5",
	14: "6730c40af44fc24caa89ef7804de72a37837dda817f29ab87d8d81d19b3c35cf",
	15: "203d3f53f0a3f3e26273a92ff0b0d3d413476e372c110bfb35cf76dc35c654f8",
	16: "9bc7ee163919bac8fce9a9d4d80cba27714654399d2c251b1823cad26a8ea868",
	17: "cec5fd76ba61da89d3d930c0216112365acdabf40adc8459b45b917ef4d7898a",
	18: "7c1d0c7ec1275fbbec43cf048c70592fbb48e619a6ad882a3af85ea84bb7a723",
	19: "82b10f98d0c6565c8b657c8a25f94c4dad45a81dac03b27f260debfeebae4e8f",
	20: "ef630baf088df10d7f4d03ff624488836f1e8a2361969b16f2449fcd8aa4a9bd",
	21: "1d012fb03dbc00edc38a2144217def012bad20ce7356341562464f7e9a290041",
	22: "c47bb0ad670e8521da9fded14e2eac2e4e2a6c62f0384e713a487cc18d1af93b",
	23: "4322b74b8060d2332e7e882617ca057a0ed48a82d6d0f666ef3e18a373c7eddc",
	24: "427f3f07ad0b1d39a72004e33c354cd2ae128841308af43f2519b324ce082fdc",
	25: "080352eca506ed8f70eb0a10a5b27122618a5f31f8f059bb56e53ad8da7b3d86",
	26: "dc8296bda6817f20e2ef92c894fc0c152ec514994e884a9f38f827d944bce5fb",
	27: "0a550888c314c38561a3414988780afd8e56b36d13778339698ccb18f1e29ae7",
	28: "1f3b81e07fd97ae57c4f3fd22547c09ca0ddd405faf6798cee52e2893507693a",
	29: "054398280752897d6d1eb2ad0ada75dfe95787d47ecd3fb226a4c5ca4a95c773",
	30: "4d34547e22486c0b286520578b664e1ba1cd2a4feeb3db4b8bb64dd3046ef98b",
	31: "fd7d3782ff05b158bd71a53370b8fb7910be62691ce2525fb81714e7781d3cd1",
}
