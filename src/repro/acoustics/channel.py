"""The multi-source acoustic channel.

This is the physical stage on which the long-range attack plays out:
each ultrasonic speaker radiates its own waveform; the channel
propagates every waveform (direct path plus reflections if a room is
given) to the victim microphone's diaphragm and sums the pressures.
Only *after* this summation does the microphone's nonlinearity square
the total — which is why spectral slices radiated from different
speakers can recombine into a full voice command that no single
speaker ever emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.room import ImageSourceRoomModel
from repro.dsp.signals import Signal, SignalBatch, Unit, mix
from repro.errors import GeometryError, SignalDomainError


@dataclass(frozen=True)
class PlacedSource:
    """A pressure waveform (referenced to 1 m) at a spatial position."""

    pressure_at_1m: Signal
    position: Position

    def __post_init__(self) -> None:
        if self.pressure_at_1m.unit != Unit.PASCAL:
            raise SignalDomainError(
                "PlacedSource requires a pressure waveform in pascals, "
                f"got unit {self.pressure_at_1m.unit!r}"
            )


@dataclass
class AcousticChannel:
    """Propagates multiple sources to one receiving point.

    Parameters
    ----------
    room:
        Optional rectangular room; when given, first-order reflections
        are included and positions are validated against the room.
        When ``None`` the channel is free field (direct path only).
    propagation:
        Point-to-point propagation model shared by all paths.
    ambient_noise_spl:
        SPL of the background noise floor added at the receiver,
        dB SPL. Quiet rooms are ~35-45 dB SPL. ``None`` disables noise
        (useful for deterministic analyses).
    """

    room: Room | None = None
    propagation: PropagationModel = field(default_factory=PropagationModel)
    ambient_noise_spl: float | None = 40.0

    def receive(
        self,
        sources: list[PlacedSource],
        receiver: Position,
        rng: np.random.Generator | None = None,
    ) -> Signal:
        """Pressure waveform arriving at ``receiver`` from all sources.

        Parameters
        ----------
        sources:
            Placed source waveforms; all must share one sample rate.
        receiver:
            Microphone position.
        rng:
            Random generator for the ambient noise. Required when
            ``ambient_noise_spl`` is set, to keep runs reproducible.
        """
        return self.add_ambient(self.transmit(sources, receiver), rng)

    def add_ambient(
        self, total: Signal, rng: np.random.Generator | None
    ) -> Signal:
        """Add one trial's ambient-noise draw to a clean waveform.

        The stochastic half of :meth:`receive`: :meth:`ambient_batch`
        for a single generator. To change the ambient noise, override
        :meth:`ambient_batch`, not this method.
        """
        return self.ambient_batch(total, [rng]).row(0)

    def transmit(
        self, sources: list[PlacedSource], receiver: Position
    ) -> Signal:
        """The deterministic arrived pressure: all sources, no noise.

        This is the trial-invariant half of :meth:`receive` — for a
        fixed emission and geometry every trial shares this waveform,
        which is why the trial pipeline computes it exactly once per
        trial group. Each source travels on its own and the arrivals
        are summed with :func:`~repro.dsp.signals.mix`: in a room
        through :meth:`~repro.acoustics.room.ImageSourceRoomModel.transmit`
        (direct path plus six images), in free field through
        :meth:`~repro.acoustics.propagation.PropagationModel.propagate`.
        Both end in ``propagate_batch``, the propagation model's one
        override point.
        """
        if not sources:
            raise SignalDomainError("receive requires at least one source")
        rates = {s.pressure_at_1m.sample_rate for s in sources}
        if len(rates) != 1:
            raise SignalDomainError(
                f"all sources must share one sample rate, got {sorted(rates)}"
            )
        room = (
            ImageSourceRoomModel(room=self.room, propagation=self.propagation)
            if self.room is not None
            else None
        )
        arrivals = []
        for source in sources:
            if room is not None:
                arrived = room.transmit(
                    source.pressure_at_1m, source.position, receiver
                )
            else:
                d = source.position.distance_to(receiver)
                if d == 0.0:
                    raise GeometryError(
                        "source and receiver are coincident; no "
                        "propagation path exists"
                    )
                arrived = self.propagation.propagate(source.pressure_at_1m, d)
            arrivals.append(arrived)
        return mix(arrivals)

    def ambient_batch(
        self,
        clean: Signal | SignalBatch,
        rngs: list[np.random.Generator],
    ) -> SignalBatch:
        """Per-trial ambient-noise copies of the transmitted waveform.

        The one override point for ambient noise. The trial pipeline
        pays for :meth:`transmit` once and then streams trial chunks
        through here with bounded memory. ``clean`` is either one
        shared waveform (static scenarios — every trial hears the same
        transmission) or an already-stacked
        ``(n_trials, n_samples)`` batch (mobile scenarios — each row
        carries that trial's geometry gain). Row ``i`` of the result
        adds white noise drawn from ``rngs[i]``; with
        ``ambient_noise_spl=None`` the rows are noise-free copies.
        """
        if not rngs:
            raise SignalDomainError(
                "ambient_batch requires at least one trial generator"
            )
        if isinstance(clean, SignalBatch) and clean.n_signals != len(rngs):
            raise SignalDomainError(
                f"{clean.n_signals} stacked clean waveforms but "
                f"{len(rngs)} trial generators"
            )
        if self.ambient_noise_spl is not None and any(
            rng is None for rng in rngs
        ):
            raise SignalDomainError(
                "ambient noise enabled but a trial generator is None; "
                "pass one seeded generator per trial or set "
                "ambient_noise_spl=None"
            )
        if self.ambient_noise_spl is None:
            if isinstance(clean, SignalBatch):
                return clean
            return SignalBatch.tiled(clean, len(rngs))
        from repro.acoustics.spl import spl_to_pressure

        rms_pa = spl_to_pressure(self.ambient_noise_spl)
        n = clean.n_samples
        n_draw = int(round(clean.duration * clean.sample_rate))
        rows = np.empty((len(rngs), n), dtype=clean.samples.dtype)
        for index, rng in enumerate(rngs):
            draw = rng.normal(0.0, 1.0, n_draw)
            np.multiply(draw, rms_pa, out=draw)
            if n_draw == n:
                noise = draw
            else:
                noise = np.zeros(n)
                noise[:n_draw] = draw
            row = (
                clean.samples[index]
                if isinstance(clean, SignalBatch)
                else clean.samples
            )
            np.add(row, noise, out=rows[index])
        return SignalBatch.adopt(rows, clean.sample_rate, Unit.PASCAL)
