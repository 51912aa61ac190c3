"""Unit tests for the multi-source acoustic channel."""

import numpy as np
import pytest

from repro.acoustics.channel import AcousticChannel, PlacedSource
from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.spl import pressure_to_spl
from repro.dsp.signals import Unit, tone
from repro.dsp.spectrum import band_power
from repro.errors import GeometryError, SignalDomainError


def _source(frequency, position, duration=0.1):
    wave = tone(frequency, duration, 48000.0, unit=Unit.PASCAL)
    return PlacedSource(wave, position)


class TestPlacedSource:
    def test_requires_pascal(self):
        with pytest.raises(SignalDomainError):
            PlacedSource(tone(100.0, 0.1, 48000.0), Position(0, 0, 0))


class TestReceive:
    def test_single_source_free_field(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        received = channel.receive(
            [_source(1000.0, Position(0, 0, 0))], Position(2, 0, 0)
        )
        assert received.rms() == pytest.approx(
            tone(1000.0, 0.1, 48000.0).rms() / 2.0, rel=0.05
        )

    def test_sources_superpose(self, rng):
        channel = AcousticChannel(
            ambient_noise_spl=None,
            propagation=PropagationModel(include_delay=False),
        )
        receiver = Position(2, 0, 0)
        sources = [
            _source(1000.0, Position(0, 0, 0)),
            _source(3000.0, Position(0, 0.5, 0)),
        ]
        received = channel.receive(sources, receiver)
        assert band_power(received, 900, 1100) > 1e-3
        assert band_power(received, 2900, 3100) > 1e-3

    def test_noise_floor_level(self, rng):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        quiet = _source(1000.0, Position(0, 0, 0))
        quiet = PlacedSource(
            quiet.pressure_at_1m * 1e-9, quiet.position
        )
        received = channel.receive([quiet], Position(1, 0, 0), rng)
        assert pressure_to_spl(received.rms()) == pytest.approx(40.0, abs=2.0)

    def test_noise_requires_rng(self):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        with pytest.raises(SignalDomainError):
            channel.receive(
                [_source(1000.0, Position(0, 0, 0))], Position(1, 0, 0)
            )

    def test_empty_sources_rejected(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        with pytest.raises(SignalDomainError):
            channel.receive([], Position(1, 0, 0))

    def test_mixed_rates_rejected(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        a = _source(1000.0, Position(0, 0, 0))
        b = PlacedSource(
            tone(1000.0, 0.1, 96000.0, unit=Unit.PASCAL),
            Position(0, 1, 0),
        )
        with pytest.raises(SignalDomainError):
            channel.receive([a, b], Position(1, 0, 0))

    def test_coincident_source_receiver_rejected(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        with pytest.raises(GeometryError):
            channel.receive(
                [_source(1000.0, Position(1, 0, 0))], Position(1, 0, 0)
            )

    def test_room_channel_validates_positions(self, rng):
        channel = AcousticChannel(
            room=Room.meeting_room(), ambient_noise_spl=None
        )
        with pytest.raises(GeometryError):
            channel.receive(
                [_source(1000.0, Position(0.5, 2, 1))],
                Position(20.0, 2, 1),
            )

    def test_room_adds_reverberation(self, rng):
        free = AcousticChannel(
            ambient_noise_spl=None,
            propagation=PropagationModel(include_delay=False),
        )
        roomy = AcousticChannel(
            room=Room.meeting_room(),
            ambient_noise_spl=None,
            propagation=PropagationModel(include_delay=False),
        )
        source = [_source(1000.0, Position(1, 2, 1))]
        receiver = Position(4, 2, 1)
        assert (
            roomy.receive(source, receiver).energy()
            > free.receive(source, receiver).energy()
        )

    def test_deterministic_given_seed(self):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        source = [_source(1000.0, Position(0, 0, 0))]
        a = channel.receive(
            source, Position(1, 0, 0), np.random.default_rng(5)
        )
        b = channel.receive(
            source, Position(1, 0, 0), np.random.default_rng(5)
        )
        assert a == b


class TestBatchedTransmission:
    """transmit() propagates source by source; a stacked kernel call
    over all sources must sum to the same bits, and the propagation
    model's one override point is honoured everywhere."""

    def _sources(self, n):
        return [
            _source(1000.0 * (i + 1), Position(0.2 * i, 0.0, 0.0))
            for i in range(n)
        ]

    def test_multi_source_transmit_bitwise_equals_per_source_mix(self):
        channel = AcousticChannel(ambient_noise_spl=None)
        sources = self._sources(4)
        receiver = Position(3.0, 0.5, 0.0)
        per_source = channel.transmit(sources, receiver)
        stacked = channel.propagation.propagate_batch(
            np.stack([s.pressure_at_1m.samples for s in sources]),
            sources[0].pressure_at_1m.sample_rate,
            [s.position.distance_to(receiver) for s in sources],
        )
        summed = stacked[0].copy()
        for row in stacked[1:]:
            summed = np.add(summed, row)
        assert np.array_equal(per_source.samples, summed)

    @pytest.mark.parametrize(
        "room", [None, Room.meeting_room()], ids=["free_field", "room"]
    )
    def test_override_is_honoured(self, room):
        """An override of propagate_batch, the one override point,
        reaches free-field and room transmissions alike."""

        class HalvedPropagation(PropagationModel):
            def propagate_batch(self, *args, **kwargs):
                return 0.5 * super().propagate_batch(*args, **kwargs)

        halved = AcousticChannel(
            room=room,
            ambient_noise_spl=None,
            propagation=HalvedPropagation(),
        )
        stock = AcousticChannel(room=room, ambient_noise_spl=None)
        sources = self._sources(3)
        receiver = Position(2.0, 1.0, 1.0)
        assert np.allclose(
            halved.transmit(sources, receiver).samples,
            0.5 * stock.transmit(sources, receiver).samples,
            rtol=1e-12,
            atol=0.0,
        )

    def test_ambient_batch_rejects_none_generators(self):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        clean = channel.transmit(
            self._sources(1), Position(1.0, 0.0, 0.0)
        )
        with pytest.raises(SignalDomainError, match="generator"):
            channel.ambient_batch(clean, [None])
