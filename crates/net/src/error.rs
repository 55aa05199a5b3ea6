//! Error types for the network layer.
//!
//! Since 0.2.0 the network layer surfaces failures through the unified
//! workspace [`enum@Error`] (re-exported from `rjms_core`): transport
//! failures map to [`Error::Io`], server-side rejections to
//! [`Error::Remote`], malformed frames to [`Error::Decode`], and the
//! client's request timeout / torn connection to [`Error::Timeout`] /
//! [`Error::Closed`]. The `NetError` alias deprecated in 0.2.0 has been
//! removed; match on the unified [`enum@Error`] directly. A
//! [`DecodeError`](crate::wire::DecodeError) converts into [`Error::Decode`]
//! (the conversion lives beside the codec, in `rjms_broker::codec`).

pub use rjms_core::Error;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DecodeError;

    #[test]
    fn display_variants() {
        assert!(Error::Timeout.to_string().contains("timed out"));
        assert!(Error::Closed.to_string().contains("closed"));
        assert!(Error::Remote { message: "boom".into() }.to_string().contains("boom"));
    }

    #[test]
    fn decode_errors_convert() {
        let e = Error::from(DecodeError { message: "truncated u32".into() });
        assert!(matches!(e, Error::Decode { ref detail } if detail == "truncated u32"));
        assert_eq!(e.to_string(), "decode error: truncated u32");
    }
}
