package fingerprint

import (
	"slices"
	"testing"
)

// goldenVectors pins the exact output of the S1–S4 kernel. WAL records,
// BFLOWSNB checkpoints and deployed devices all carry these hashes, so any
// change to normalisation, the rolling hash or winnowing that alters a
// single hash or position silently breaks detection against every existing
// index. The vectors were recorded from the original per-rune kernel and
// must never be regenerated to make a change pass.
var goldenVectors = []struct {
	name      string
	text      string
	cfg       Config
	hashes    []uint32
	positions []Position
}{
	{
		name: "ascii prose",
		text: "The quick brown fox jumps over the lazy dog while the tag service watches every keystroke.",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x005335be, 0x0d53e07d,
		},
		positions: []Position{
			{0x0d53e07d, 29, 48}, {0x005335be, 37, 56},
		},
	},
	{
		name: "ascii prose",
		text: "The quick brown fox jumps over the lazy dog while the tag service watches every keystroke.",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0304df7a, 0x0c277ff6, 0x13278af0, 0x14164368, 0x17f5f611, 0x1927945f,
			0x1af5fab8, 0x1df5ff6e, 0x32076816, 0x3b2a088b, 0x3c18c0f1, 0x4509c49b,
			0x47f88028, 0x4809c95b, 0x5b2c797c, 0x5c1b31ea, 0x611b39c6, 0x622c8477,
			0x631b3ced, 0x661b41a8, 0x6a0c3d79, 0x6a2c911e, 0x6e0c43bf, 0x70faff57,
			0x70faff59, 0x70faff5c, 0x71fb00db, 0x72fb026a, 0x781d9c9c,
		},
		positions: []Position{
			{0x3c18c0f1, 4, 7}, {0x1df5ff6e, 7, 11}, {0x4509c49b, 8, 12},
			{0x1927945f, 13, 17}, {0x3b2a088b, 18, 22}, {0x32076816, 20, 23},
			{0x14164368, 23, 27}, {0x70faff57, 28, 32}, {0x611b39c6, 29, 33},
			{0x6a0c3d79, 35, 38}, {0x5b2c797c, 38, 42}, {0x47f88028, 40, 43},
			{0x13278af0, 44, 47}, {0x0304df7a, 46, 49}, {0x6e0c43bf, 47, 51},
			{0x72fb026a, 52, 56}, {0x781d9c9c, 58, 61}, {0x70faff59, 59, 62},
			{0x631b3ced, 60, 63}, {0x17f5f611, 63, 67}, {0x0c277ff6, 66, 69},
			{0x1af5fab8, 69, 72}, {0x71fb00db, 71, 75}, {0x70faff5c, 76, 79},
			{0x661b41a8, 77, 81}, {0x622c8477, 78, 82}, {0x4809c95b, 80, 83},
			{0x6a2c911e, 82, 85}, {0x5c1b31ea, 85, 88},
		},
	},
	{
		name: "mixed case punctuation",
		text: "Hello, World!! MySQL 5.1 -- Re: Q3 *CONFIDENTIAL* Budget; (draft) v2.0? [See: p.4]",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x01a074f4, 0x1283558f,
		},
		positions: []Position{
			{0x1283558f, 40, 60}, {0x01a074f4, 47, 70},
		},
	},
	{
		name: "mixed case punctuation",
		text: "Hello, World!! MySQL 5.1 -- Re: Q3 *CONFIDENTIAL* Budget; (draft) v2.0? [See: p.4]",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x01f394c5, 0x0f83a552, 0x1a2795fe, 0x21f605c6, 0x3318b292, 0x3df87071,
			0x3ff8738e, 0x45f87d14, 0x4af884db, 0x4e1b1bdb, 0x521b2232, 0x63faeadc,
			0x6afaf5dd, 0x6b0c3f07, 0x6cfaf90b, 0x781d9c8f, 0x8dfd6b85, 0x9377a91e,
			0x98fd7ce8, 0xa2201d40,
		},
		positions: []Position{
			{0x6afaf5dd, 1, 4}, {0x1a2795fe, 7, 10}, {0x45f87d14, 11, 17},
			{0x3318b292, 18, 22}, {0x0f83a552, 21, 29}, {0x521b2232, 28, 33},
			{0x21f605c6, 36, 39}, {0x8dfd6b85, 39, 42}, {0x3df87071, 41, 44},
			{0x6cfaf90b, 42, 45}, {0xa2201d40, 44, 47}, {0x6b0c3f07, 47, 52},
			{0x01f394c5, 50, 53}, {0x3ff8738e, 52, 55}, {0x4af884db, 59, 62},
			{0x4e1b1bdb, 60, 63}, {0x98fd7ce8, 62, 67}, {0x9377a91e, 69, 75},
			{0x781d9c8f, 73, 76}, {0x63faeadc, 74, 79},
		},
	},
	{
		name: "digits",
		text: "4111 1111 1111 1111 exp 12/29 cvv 737; call +44 20 7946 0958 ext. 6502",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x049600bf,
		},
		positions: []Position{
			{0x049600bf, 34, 55},
		},
	},
	{
		name: "digits",
		text: "4111 1111 1111 1111 exp 12/29 cvv 737; call +44 20 7946 0958 ext. 6502",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0e83a37f, 0x13f5efba, 0x1683b04a, 0x28f610d3, 0x34861def, 0x398625c5,
			0x3d0bf65c, 0x412a11b9, 0x452a180a, 0x57774a7e, 0x5d889d0f, 0x76fb08c5,
			0x7779bb6d, 0x7879bd01,
		},
		positions: []Position{
			{0x7779bb6d, 3, 7}, {0x7779bb6d, 5, 8}, {0x7779bb6d, 6, 9},
			{0x7779bb6d, 7, 11}, {0x7779bb6d, 8, 12}, {0x7779bb6d, 10, 13},
			{0x7779bb6d, 11, 14}, {0x7779bb6d, 12, 16}, {0x7779bb6d, 13, 17},
			{0x7779bb6d, 15, 18}, {0x7779bb6d, 16, 19}, {0x76fb08c5, 20, 23},
			{0x412a11b9, 21, 25}, {0x7879bd01, 24, 28}, {0x28f610d3, 30, 33},
			{0x5d889d0f, 34, 37}, {0x13f5efba, 39, 42}, {0x3d0bf65c, 42, 47},
			{0x57774a7e, 49, 53}, {0x34861def, 54, 58}, {0x1683b04a, 58, 62},
			{0x452a180a, 62, 67}, {0x398625c5, 66, 69}, {0x0e83a37f, 67, 70},
		},
	},
	{
		name: "latin-1 accents",
		text: "Père Noël a livré les cadeaux à Zürich; ÉCOLE, ÇA, déjà-vu, naïve façade, Ångström",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x0039bed0, 0x01d07075, 0x0c0eb119, 0x1792d529,
		},
		positions: []Position{
			{0x1792d529, 33, 55}, {0x0c0eb119, 37, 56}, {0x01d07075, 42, 64},
			{0x0039bed0, 47, 67},
		},
	},
	{
		name: "latin-1 accents",
		text: "Père Noël a livré les cadeaux à Zürich; ÉCOLE, ÇA, déjà-vu, naïve façade, Ångström",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0d04ef45, 0x13f5efb2, 0x1af5fb16, 0x21f605c4, 0x29f19569, 0x29f19571,
			0x2c9e7396, 0x378d3bd7, 0x3b8d4271, 0x3df87064, 0x3df870c6, 0x3e14472b,
			0x521b222f, 0x561b2870, 0x5ffae495, 0x64faec60, 0x6a0c3d6b, 0x6e0c43be,
			0x6e0c440e, 0x8007e313, 0x81a376f2, 0x83a379ba, 0x871db439, 0x93e43a55,
			0x98e44228,
		},
		positions: []Position{
			{0x521b222f, 3, 7}, {0x3e14472b, 7, 10}, {0x6a0c3d6b, 10, 15},
			{0x0d04ef45, 15, 18}, {0x83a379ba, 18, 23}, {0x6e0c43be, 21, 24},
			{0x13f5efb2, 25, 28}, {0x3df87064, 27, 30}, {0x5ffae495, 28, 31},
			{0x93e43a55, 33, 37}, {0x3b8d4271, 33, 39}, {0x561b2870, 39, 42},
			{0x1af5fb16, 41, 47}, {0x21f605c4, 47, 50}, {0x6e0c440e, 49, 55},
			{0x2c9e7396, 53, 59}, {0x81a376f2, 59, 64}, {0x8007e313, 61, 64},
			{0x378d3bd7, 62, 67}, {0x29f19571, 70, 73}, {0x64faec60, 74, 78},
			{0x29f19569, 77, 80}, {0x2c9e7396, 78, 82}, {0x3df870c6, 81, 87},
			{0x98e44228, 85, 88}, {0x871db439, 89, 92},
		},
	},
	{
		name: "cjk",
		text: "机密文件：本季度财务报告不得外传。请勿复制到外部服务，违者追究责任。",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x04a56c4d, 0x0b6964d5, 0x1654805d,
		},
		positions: []Position{
			{0x0b6964d5, 30, 48}, {0x1654805d, 45, 66}, {0x04a56c4d, 75, 93},
		},
	},
	{
		name: "cjk",
		text: "机密文件：本季度财务报告不得外传。请勿复制到外部服务，违者追究责任。",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x06b59153, 0x10c6ea19, 0x11682f9b, 0x17955882, 0x18955a14, 0x18da7ec5,
			0x1b423872, 0x1b45ad19, 0x1e56faf3, 0x1e56faf5, 0x2140035c, 0x2257013e,
			0x26400b26, 0x26400b27, 0x2975212e, 0x31401c72, 0x31401c92, 0x3786801d,
			0x40dabd7a, 0x50779d12, 0x52adba73, 0x6157643e, 0x6eaba7b8, 0x79d08a1b,
			0x81b2819f, 0x82ce5978, 0x883856b5, 0x883856bb, 0x8a3859cc, 0x923627b9,
			0x95362c9b, 0xb68376d8, 0xbc3ae6ff, 0xbe38ab9e, 0xcda3eebb,
		},
		positions: []Position{
			{0x82ce5978, 0, 6}, {0x81b2819f, 3, 9}, {0xbc3ae6ff, 6, 9},
			{0x95362c9b, 9, 12}, {0x79d08a1b, 9, 18}, {0x6eaba7b8, 15, 21},
			{0x52adba73, 18, 24}, {0x18955a14, 18, 24}, {0x26400b26, 24, 27},
			{0x1e56faf3, 27, 33}, {0x2257013e, 30, 36}, {0x11682f9b, 33, 39},
			{0x6157643e, 33, 39}, {0x923627b9, 36, 39}, {0xbe38ab9e, 39, 42},
			{0x50779d12, 39, 45}, {0x2975212e, 42, 48}, {0x2140035c, 51, 54},
			{0x10c6ea19, 51, 57}, {0x40dabd7a, 54, 60}, {0x883856bb, 60, 63},
			{0x883856b5, 63, 66}, {0x06b59153, 63, 69}, {0x1b423872, 69, 72},
			{0x1b45ad19, 69, 75}, {0xb68376d8, 72, 78}, {0x8a3859cc, 75, 78},
			{0x1e56faf5, 75, 84}, {0x31401c72, 81, 84}, {0x3786801d, 81, 87},
			{0x31401c92, 87, 90}, {0x18da7ec5, 87, 93}, {0xcda3eebb, 90, 96},
			{0x26400b27, 93, 96}, {0x17955882, 93, 99},
		},
	},
	{
		name: "invalid utf-8",
		text: "secret\xff\xfepayload\x80 data \xc3 truncated and \xed\xa0\x80 surrogate \xf4\x90\x80\x80 tail",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x0fb2f781,
		},
		positions: []Position{
			{0x0fb2f781, 13, 33},
		},
	},
	{
		name: "invalid utf-8",
		text: "secret\xff\xfepayload\x80 data \xc3 truncated and \xed\xa0\x80 surrogate \xf4\x90\x80\x80 tail",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0216271c, 0x13f5efc2, 0x24f60a76, 0x39f86a25, 0x39f86a2b, 0x3cf86ed1,
			0x4bf88682, 0x5c1b31e6, 0x621b3b5f, 0x632c8614, 0x72fb026a, 0x9a2010bb,
			0x9e201707,
		},
		positions: []Position{
			{0x24f60a76, 2, 5}, {0x0216271c, 8, 11}, {0x632c8614, 10, 13},
			{0x3cf86ed1, 14, 19}, {0x39f86a2b, 17, 20}, {0x9a2010bb, 19, 25},
			{0x621b3b5f, 25, 28}, {0x13f5efc2, 28, 31}, {0x39f86a25, 32, 36},
			{0x4bf88682, 36, 44}, {0x5c1b31e6, 45, 48}, {0x9e201707, 49, 58},
			{0x72fb026a, 50, 59},
		},
	},
	{
		name:      "shorter than one n-gram",
		text:      "Tiny, text!",
		cfg:       DefaultConfig(),
		hashes:    []uint32{},
		positions: []Position{},
	},
	{
		name: "shorter than one n-gram",
		text: "Tiny, text!",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0504e2b4, 0x6b2c92a2,
		},
		positions: []Position{
			{0x0504e2b4, 1, 4}, {0x6b2c92a2, 3, 8},
		},
	},
	{
		name: "shorter than one window",
		text: "A sentence of thirty-ish chars.",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x05f87e88,
		},
		positions: []Position{
			{0x05f87e88, 8, 27},
		},
	},
	{
		name: "shorter than one window",
		text: "A sentence of thirty-ish chars.",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0904e8fb, 0x0a04ea82, 0x17f5f609, 0x1af5fab4, 0x6cfaf8fa, 0x6cfaf90b,
			0x6dfafa90, 0x98fd7cda,
		},
		positions: []Position{
			{0x6cfaf90b, 3, 6}, {0x6cfaf8fa, 6, 9}, {0x17f5f609, 8, 12},
			{0x6dfafa90, 9, 13}, {0x98fd7cda, 12, 16}, {0x0904e8fb, 16, 19},
			{0x0a04ea82, 21, 24}, {0x1af5fab4, 25, 28},
		},
	},
	{
		name:      "empty",
		text:      "",
		cfg:       DefaultConfig(),
		hashes:    []uint32{},
		positions: []Position{},
	},
	{
		name:      "empty",
		text:      "",
		cfg:       Config{NGram: 3, Window: 4},
		hashes:    []uint32{},
		positions: []Position{},
	},
	{
		name: "greek cyrillic special case",
		text: "ΑΘΗΝΑ Москва İstanbul ǅemal STRASSE straße ΣΊΣΥΦΟΣ ﬁnance",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x02672d97, 0x09e5d95f,
		},
		positions: []Position{
			{0x02672d97, 15, 33}, {0x09e5d95f, 42, 59},
		},
	},
	{
		name: "greek cyrillic special case",
		text: "ΑΘΗΝΑ Москва İstanbul ǅemal STRASSE straße ΣΊΣΥΦΟΣ ﬁnance",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x008aa705, 0x01f394cd, 0x06d82372, 0x0a04ea8e, 0x0aab0a0d, 0x11edfaf6,
			0x15b7e79b, 0x17b7eac5, 0x1fc94079, 0x2851574c, 0x29f19561, 0x2ada9ab7,
			0x3dba6522, 0x3f01c9ee, 0x3f01c9ef, 0x4101cd15, 0x4201cea7, 0x46ff97f1,
			0x4a4cb262, 0x4cffa161, 0x4e1b1be8, 0x4e1b1c38, 0x6bfaf765, 0x6dce386c,
			0x71fb00ea, 0x7c0c59c9, 0x871db428, 0x95405c74,
		},
		positions: []Position{
			{0x15b7e79b, 0, 4}, {0x1fc94079, 2, 6}, {0x4cffa161, 4, 8},
			{0x46ff97f1, 8, 13}, {0x17b7eac5, 8, 13}, {0x06d82372, 13, 17},
			{0x6dce386c, 17, 21}, {0x3dba6522, 19, 23}, {0x0a04ea8e, 24, 28},
			{0x871db428, 26, 29}, {0x01f394cd, 30, 33}, {0x11edfaf6, 34, 37},
			{0x4a4cb262, 34, 38}, {0x6bfaf765, 36, 39}, {0x7c0c59c9, 39, 43},
			{0x4e1b1be8, 43, 46}, {0x71fb00ea, 47, 51}, {0x4e1b1c38, 51, 55},
			{0x29f19561, 52, 55}, {0x008aa705, 53, 59}, {0x3f01c9ee, 57, 61},
			{0x3f01c9ef, 61, 65}, {0x4101cd15, 63, 67}, {0x4201cea7, 65, 69},
			{0x2ada9ab7, 67, 71}, {0x2851574c, 72, 75}, {0x0aab0a0d, 72, 76},
			{0x95405c74, 72, 77},
		},
	},
	{
		name: "non-ascii digits and numerals",
		text: "ＡＢＣ１２３ ٣٤٥ ⅫⅣ ²³ ०१२ ABC123 mixed",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x0ef48c8f,
		},
		positions: []Position{
			{0x0ef48c8f, 41, 60},
		},
	},
	{
		name: "non-ascii digits and numerals",
		text: "ＡＢＣ１２３ ٣٤٥ ⅫⅣ ²³ ०१२ ABC123 mixed",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0c95471a, 0x0f04f25e, 0x164127e3, 0x2599ebdf, 0x2699ed72, 0x2799ee86,
			0x3297c184, 0x3851708c, 0x3851708d, 0x3851708e, 0x39517210, 0x39517211,
			0x52a0edfd, 0x7879bd02,
		},
		positions: []Position{
			{0x164127e3, 0, 6}, {0x39517210, 3, 6}, {0x39517211, 6, 9},
			{0x3851708c, 9, 12}, {0x3851708d, 12, 15}, {0x3851708e, 15, 18},
			{0x0c95471a, 19, 23}, {0x3297c184, 21, 25}, {0x2599ebdf, 38, 44},
			{0x2699ed72, 41, 47}, {0x2799ee86, 44, 49}, {0x52a0edfd, 44, 50},
			{0x7879bd02, 51, 54}, {0x0f04f25e, 56, 59},
		},
	},
	{
		name: "controls emoji repetition",
		text: "tabs\tand\nnewlines\r\n emoji 😀🚀 zwj 👩\u200d💻 lorem ipsum dolor lorem ipsum dolor lorem ipsum dolor lorem ipsum dolor ",
		cfg:  DefaultConfig(),
		hashes: []uint32{
			0x04863e15, 0x050353cd,
		},
		positions: []Position{
			{0x050353cd, 6, 25}, {0x04863e15, 59, 77}, {0x04863e15, 77, 95},
			{0x04863e15, 95, 113},
		},
	},
	{
		name: "controls emoji repetition",
		text: "tabs\tand\nnewlines\r\n emoji 😀🚀 zwj 👩\u200d💻 lorem ipsum dolor lorem ipsum dolor lorem ipsum dolor lorem ipsum dolor ",
		cfg:  Config{NGram: 3, Window: 4},
		hashes: []uint32{
			0x0504e2a0, 0x0704e5d4, 0x1104f596, 0x1416436e, 0x15278e19, 0x1727913c,
			0x2607553f, 0x290759ed, 0x46f87e93, 0x47f8802d, 0x521b222e, 0x591b2d35,
			0x6bfaf773, 0x741d964c,
		},
		positions: []Position{
			{0x741d964c, 3, 7}, {0x46f87e93, 7, 11}, {0x1727913c, 11, 14},
			{0x0504e2a0, 13, 16}, {0x6bfaf773, 20, 23}, {0x2607553f, 23, 36},
			{0x1104f596, 24, 37}, {0x15278e19, 36, 52}, {0x290759ed, 37, 53},
			{0x521b222e, 53, 56}, {0x0704e5d4, 57, 60}, {0x1416436e, 58, 61},
			{0x47f8802d, 63, 66}, {0x591b2d35, 67, 71}, {0x521b222e, 71, 74},
			{0x0704e5d4, 75, 78}, {0x1416436e, 76, 79}, {0x47f8802d, 81, 84},
			{0x591b2d35, 85, 89}, {0x521b222e, 89, 92}, {0x0704e5d4, 93, 96},
			{0x1416436e, 94, 97}, {0x47f8802d, 99, 102}, {0x591b2d35, 103, 107},
			{0x521b222e, 107, 110}, {0x0704e5d4, 111, 114}, {0x1416436e, 112, 115},
			{0x47f8802d, 117, 120},
		},
	},
}

// TestGoldenVectors checks every fingerprinting entry point against the
// recorded vectors: the package-level Compute (hashes and positions), a
// reused Scratch's Compute, and the positions-free ComputeShared and
// AppendHashes paths.
func TestGoldenVectors(t *testing.T) {
	var sc Scratch
	for _, v := range goldenVectors {
		fp, err := Compute(v.text, v.cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", v.name, v.cfg, err)
		}
		if got := fp.Hashes(); !slices.Equal(got, v.hashes) {
			t.Errorf("%s %+v: Hashes() = %#x, want %#x", v.name, v.cfg, got, v.hashes)
		}
		if got := fp.Positions(); !slices.Equal(got, v.positions) {
			t.Errorf("%s %+v: Positions() = %v, want %v", v.name, v.cfg, got, v.positions)
		}
		owned, err := sc.Compute(v.text, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(owned.Hashes(), v.hashes) || !slices.Equal(owned.Positions(), v.positions) {
			t.Errorf("%s %+v: Scratch.Compute diverges from the golden vector", v.name, v.cfg)
		}
		shared, err := sc.ComputeShared(v.text, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := shared.Hashes(); !slices.Equal(got, v.hashes) {
			t.Errorf("%s %+v: ComputeShared = %#x, want %#x", v.name, v.cfg, got, v.hashes)
		}
		appended, err := sc.AppendHashes(nil, v.text, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(appended, v.hashes) {
			t.Errorf("%s %+v: AppendHashes = %#x, want %#x", v.name, v.cfg, appended, v.hashes)
		}
	}
}
