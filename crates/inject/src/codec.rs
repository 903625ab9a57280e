//! Wire records for injection points.
//!
//! A campaign task frame names the injection points a remote worker must
//! sweep; this module declares [`InjectionPoint`] (breakpoint, dynamic
//! occurrence, corruption target) and [`InjectTarget`] as
//! `sympl_symbolic::codec::Codec` records.

use sympl_symbolic::codec_record;

use crate::{InjectTarget, InjectionPoint};

const TARGET_REGISTER: u8 = 0;
const TARGET_LOADED_WORD: u8 = 1;
const TARGET_DESTINATION: u8 = 2;
const TARGET_CHANGED_TARGET: u8 = 3;
const TARGET_NOP_TO_TARGETED: u8 = 4;
const TARGET_TARGETED_TO_NOP: u8 = 5;
const TARGET_PROGRAM_COUNTER: u8 = 6;

codec_record! {
    enum InjectTarget as "inject target" {
        TARGET_REGISTER => Register(reg),
        TARGET_LOADED_WORD => LoadedWord,
        TARGET_DESTINATION => Destination,
        TARGET_CHANGED_TARGET => ChangedTarget { wrong },
        TARGET_NOP_TO_TARGETED => NopToTargeted { wrong },
        TARGET_TARGETED_TO_NOP => TargetedToNop,
        TARGET_PROGRAM_COUNTER => ProgramCounter,
    }
}

codec_record! {
    struct InjectionPoint { breakpoint, occurrence, target }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::Reg;
    use sympl_symbolic::codec::{encode_u64, Codec, CodecError};

    #[test]
    fn every_target_roundtrips() {
        let targets = [
            InjectTarget::Register(Reg::r(1)),
            InjectTarget::Register(Reg::r(31)),
            InjectTarget::LoadedWord,
            InjectTarget::Destination,
            InjectTarget::ChangedTarget { wrong: Reg::r(5) },
            InjectTarget::NopToTargeted { wrong: Reg::r(9) },
            InjectTarget::TargetedToNop,
            InjectTarget::ProgramCounter,
        ];
        for target in targets {
            let point = InjectionPoint::new(4321, target).at_occurrence(7);
            let mut buf = Vec::new();
            point.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(InjectionPoint::decode(&buf, &mut pos).unwrap(), point);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn malformed_points_error() {
        assert!(InjectionPoint::decode(&[], &mut 0).is_err());
        // Unknown target tag.
        let mut buf = Vec::new();
        encode_u64(0, &mut buf);
        encode_u64(1, &mut buf);
        buf.push(200);
        assert!(matches!(
            InjectionPoint::decode(&buf, &mut 0),
            Err(CodecError::BadTag {
                what: "inject target",
                ..
            })
        ));
        // Out-of-file register index.
        let mut buf = Vec::new();
        encode_u64(0, &mut buf);
        encode_u64(1, &mut buf);
        buf.push(TARGET_REGISTER);
        buf.push(99);
        assert!(matches!(
            InjectionPoint::decode(&buf, &mut 0),
            Err(CodecError::BadTag {
                what: "register index",
                ..
            })
        ));
    }
}
