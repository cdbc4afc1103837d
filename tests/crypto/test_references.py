"""Cryptographic substrates validated against independent ground truth."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AES_FIPS_VECTOR,
    BLOWFISH_TEST_VECTORS,
    Blowfish,
    aes_encrypt_block,
    expand_key_128,
    gf_mul,
    md5_digest,
    md5_hexdigest,
    pi_fractional_hex,
    pi_words,
    sbox,
    t_tables,
)
from repro.crypto.md5_ref import compress, message_index, pad, sine_table


#: Hex digits of pi's fractional part Blowfish reads: 18 + 4 x 256 words.
BLOWFISH_PI_DIGITS = 8 * (18 + 4 * 256)


def machin_pi_hex(digits: int) -> str:
    """Oracle: pi = 16 atan(1/5) - 4 atan(1/239), Taylor series in fixed point."""
    guard = 16
    one = 1 << (4 * (digits + guard))

    def atan_inv(x: int) -> int:
        total, power, k = 0, one // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= x * x
            k += 1
        return total

    frac = 16 * atan_inv(5) - 4 * atan_inv(239) - 3 * one
    return format(frac >> (4 * guard), f"0{digits}x").upper()


def brute_force_sbox() -> list:
    """Oracle: each GF(2^8) inverse found by search, then the affine map."""
    table = []
    for x in range(256):
        inv = next((y for y in range(1, 256) if gf_mul(x, y) == 1), 0)
        s = inv
        for shift in range(1, 5):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        table.append(s ^ 0x63)
    return table


class TestPiDigits:
    def test_blowfish_digits_equal_the_machin_series(self):
        assert pi_fractional_hex(BLOWFISH_PI_DIGITS) == \
            machin_pi_hex(BLOWFISH_PI_DIGITS)

    def test_blowfish_digits_are_pinned(self):
        text = pi_fractional_hex(BLOWFISH_PI_DIGITS)
        assert len(text) == BLOWFISH_PI_DIGITS
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "4cf5e53fa9dd96d7ba895ec17a9cf062fba06be4b73be5128222e9e58bcc9316"
        )

    @pytest.mark.parametrize("digits", [1, 2, 7, 8, 13, 64, 100, 257])
    def test_short_expansions_equal_the_machin_series(self, digits):
        assert pi_fractional_hex(digits) == machin_pi_hex(digits)

    def test_first_words_match_published_blowfish_constants(self):
        words = pi_words(4)
        assert words[0] == 0x243F6A88
        assert words[1] == 0x85A308D3
        assert words[2] == 0x13198A2E
        assert words[3] == 0x03707344

    def test_prefix_stability(self):
        """More precision never changes earlier digits."""
        assert pi_words(80)[:20] == pi_words(20)


class TestMd5:
    @given(st.binary(max_size=300))
    @settings(max_examples=50)
    def test_matches_hashlib_on_arbitrary_input(self, data):
        assert md5_digest(data) == hashlib.md5(data).digest()

    def test_known_vectors(self):
        assert md5_hexdigest(b"") == "d41d8cd98f00b204e9800998ecf8427e"
        assert md5_hexdigest(b"abc") == "900150983cd24fb0d6963f7d28e17f72"

    def test_padding_length_multiple_of_64(self):
        for n in range(0, 130):
            assert len(pad(b"x" * n)) % 64 == 0

    def test_message_index_is_a_permutation_per_round(self):
        for start in (0, 16, 32, 48):
            indices = {message_index(i) for i in range(start, start + 16)}
            assert indices == set(range(16))

    def test_sine_table_values(self):
        assert sine_table()[0] == 0xD76AA478  # T[1] from RFC 1321

    def test_compress_changes_state(self):
        state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        assert compress(state, [0] * 16) != state


class TestBlowfish:
    def test_published_vectors(self):
        for key, plaintext, ciphertext in BLOWFISH_TEST_VECTORS:
            assert Blowfish(key).encrypt_block(plaintext) == ciphertext

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=4, max_size=56))
    @settings(max_examples=10)
    def test_decrypt_inverts_encrypt(self, block, key):
        bf = Blowfish(key)
        assert bf.decrypt_block(bf.encrypt_block(block)) == block

    def test_key_sensitivity(self):
        pt = bytes(8)
        a = Blowfish(b"key-one!").encrypt_block(pt)
        b = Blowfish(b"key-two!").encrypt_block(pt)
        assert a != b

    def test_ecb_multiblock(self):
        bf = Blowfish(b"testkey!")
        data = bytes(range(24))
        assert bf.decrypt_ecb(bf.encrypt_ecb(data)) == data

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            Blowfish(b"abc")


class TestAes:
    def test_fips_197_vector(self):
        key, plaintext, ciphertext = AES_FIPS_VECTOR
        assert aes_encrypt_block(plaintext, key) == ciphertext

    def test_sbox_equals_brute_force_inverse_plus_affine(self):
        assert list(sbox()) == brute_force_sbox()

    def test_sbox_is_a_permutation_with_known_anchors(self):
        s = sbox()
        assert sorted(s) == list(range(256))
        assert s[0x00] == 0x63
        assert s[0x01] == 0x7C
        assert s[0x53] == 0xED

    @given(st.integers(min_value=1, max_value=255))
    def test_gf_mul_identity_and_distribution(self, a):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 2) ^ gf_mul(a, 1) == gf_mul(a, 3)

    def test_t_tables_are_rotations(self):
        t0, t1, t2, t3 = t_tables()
        for x in (0, 1, 77, 255):
            rot = ((t0[x] >> 8) | (t0[x] << 24)) & 0xFFFFFFFF
            assert t1[x] == rot

    def test_key_schedule_first_round_key_is_key(self):
        key, _, _ = AES_FIPS_VECTOR
        words = expand_key_128(key)
        assert len(words) == 44
        assert words[0] == int.from_bytes(key[:4], "big")

    def test_block_length_enforced(self):
        with pytest.raises(ValueError):
            aes_encrypt_block(b"short", bytes(16))
