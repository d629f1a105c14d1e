//! Ties the engines' fixed-offset header codecs to the header description
//! language: every `TcpView` / `DccpView` accessor must read what
//! `FormatSpec::get` reads for the same-named field of the built-in
//! description, and every `encode()` must produce the bytes that writing
//! each field through `FormatSpec::set` produces. A layout edit to either
//! description that the codecs do not follow fails here.

use proptest::prelude::*;
use snake_packet::dccp::{
    dccp_spec, DccpBuilder, DccpPacketType, DccpView, DCCP_HEADER_LEN, SEQ_MASK,
};
use snake_packet::tcp::{tcp_spec, TcpBuilder, TcpFlags, TcpView, TCP_HEADER_LEN};
use snake_packet::{FormatSpec, PacketError};

/// `FormatSpec::get` of a named field.
fn get(spec: &FormatSpec, buf: &[u8], name: &str) -> u64 {
    spec.get(buf, spec.field(name).unwrap()).unwrap()
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    any::<u8>().prop_map(|b| TcpFlags {
        urg: b & 0b10_0000 != 0,
        ack: b & 0b01_0000 != 0,
        psh: b & 0b00_1000 != 0,
        rst: b & 0b00_0100 != 0,
        syn: b & 0b00_0010 != 0,
        fin: b & 0b00_0001 != 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every `TcpView` accessor agrees with the description.
    #[test]
    fn tcp_view_matches_spec(buf in prop::collection::vec(any::<u8>(), TCP_HEADER_LEN..48)) {
        let spec = tcp_spec();
        let v = TcpView::new(&buf).unwrap();
        prop_assert_eq!(v.src_port() as u64, get(&spec, &buf, "src_port"));
        prop_assert_eq!(v.dst_port() as u64, get(&spec, &buf, "dst_port"));
        prop_assert_eq!(v.seq() as u64, get(&spec, &buf, "seq"));
        prop_assert_eq!(v.ack() as u64, get(&spec, &buf, "ack"));
        prop_assert_eq!(v.data_offset() as u64, get(&spec, &buf, "data_offset"));
        prop_assert_eq!(v.window() as u64, get(&spec, &buf, "window"));
        prop_assert_eq!(v.checksum() as u64, get(&spec, &buf, "checksum"));
        prop_assert_eq!(v.urgent_ptr() as u64, get(&spec, &buf, "urgent_ptr"));
        let flag = |name| get(&spec, &buf, name) == 1;
        let flags = TcpFlags {
            urg: flag("urg"),
            ack: flag("ack_flag"),
            psh: flag("psh"),
            rst: flag("rst"),
            syn: flag("syn"),
            fin: flag("fin"),
        };
        prop_assert_eq!(v.flags(), flags);
    }

    /// `TcpBuilder::encode` writes what the description's setters write.
    #[test]
    fn tcp_encode_matches_spec(
        ports in (any::<u16>(), any::<u16>()),
        numbers in (any::<u32>(), any::<u32>()),
        window in any::<u16>(),
        urgent_ptr in any::<u16>(),
        flags in arb_flags(),
    ) {
        let builder = TcpBuilder::new(ports.0, ports.1)
            .seq(numbers.0)
            .ack(numbers.1)
            .window(window)
            .urgent_ptr(urgent_ptr)
            .flags(flags);
        let mut expected = tcp_spec().new_header();
        for (name, value) in [
            ("src_port", ports.0 as u64),
            ("dst_port", ports.1 as u64),
            ("seq", numbers.0 as u64),
            ("ack", numbers.1 as u64),
            ("data_offset", 5),
            ("urg", flags.urg as u64),
            ("ack_flag", flags.ack as u64),
            ("psh", flags.psh as u64),
            ("rst", flags.rst as u64),
            ("syn", flags.syn as u64),
            ("fin", flags.fin as u64),
            ("window", window as u64),
            ("urgent_ptr", urgent_ptr as u64),
        ] {
            expected.set(name, value).unwrap();
        }
        prop_assert_eq!(&builder.encode()[..], expected.bytes());
        prop_assert_eq!(builder.build(), expected);
    }

    /// Every `DccpView` accessor agrees with the description.
    #[test]
    fn dccp_view_matches_spec(buf in prop::collection::vec(any::<u8>(), DCCP_HEADER_LEN..48)) {
        let spec = dccp_spec();
        let v = DccpView::new(&buf).unwrap();
        prop_assert_eq!(v.src_port() as u64, get(&spec, &buf, "src_port"));
        prop_assert_eq!(v.dst_port() as u64, get(&spec, &buf, "dst_port"));
        prop_assert_eq!(v.checksum() as u64, get(&spec, &buf, "checksum"));
        prop_assert_eq!(v.seq(), get(&spec, &buf, "seq"));
        prop_assert_eq!(v.ack_reserved() as u64, get(&spec, &buf, "ack_reserved"));
        prop_assert_eq!(v.ack(), get(&spec, &buf, "ack"));
        prop_assert_eq!(
            v.packet_type(),
            DccpPacketType::from_code(get(&spec, &buf, "type") as u8)
        );
    }

    /// `DccpBuilder::encode` writes what the description's setters write.
    #[test]
    fn dccp_encode_matches_spec(
        ports in (any::<u16>(), any::<u16>()),
        code in 0usize..DccpPacketType::all().len(),
        numbers in (any::<u64>(), any::<u64>()),
        ack_reserved in any::<u16>(),
    ) {
        let ptype = DccpPacketType::all()[code];
        let builder = DccpBuilder::new(ports.0, ports.1, ptype)
            .seq(numbers.0)
            .ack(numbers.1)
            .ack_reserved(ack_reserved);
        let mut expected = dccp_spec().new_header();
        for (name, value) in [
            ("src_port", ports.0 as u64),
            ("dst_port", ports.1 as u64),
            ("data_offset", (DCCP_HEADER_LEN / 4) as u64),
            ("type", ptype.code() as u64),
            ("x", 1),
            ("seq", numbers.0 & SEQ_MASK),
            ("ack_reserved", ack_reserved as u64),
            ("ack", numbers.1 & SEQ_MASK),
        ] {
            expected.set(name, value).unwrap();
        }
        prop_assert_eq!(&builder.encode()[..], expected.bytes());
        prop_assert_eq!(builder.build(), expected);
    }
}

/// The views reject short buffers with the spec's own error.
#[test]
fn short_buffers_rejected_like_the_spec() {
    let buf = [0u8; DCCP_HEADER_LEN];
    for len in 0..TCP_HEADER_LEN {
        let spec_err = tcp_spec().parse(buf[..len].to_vec()).unwrap_err();
        assert_eq!(
            spec_err,
            PacketError::BufferTooShort {
                needed: TCP_HEADER_LEN,
                got: len
            }
        );
        assert_eq!(TcpView::new(&buf[..len]).unwrap_err(), spec_err);
    }
    for len in 0..DCCP_HEADER_LEN {
        let spec_err = dccp_spec().parse(buf[..len].to_vec()).unwrap_err();
        assert_eq!(
            spec_err,
            PacketError::BufferTooShort {
                needed: DCCP_HEADER_LEN,
                got: len
            }
        );
        assert_eq!(DccpView::new(&buf[..len]).unwrap_err(), spec_err);
    }
    assert_eq!(tcp_spec().byte_len(), TCP_HEADER_LEN);
    assert_eq!(dccp_spec().byte_len(), DCCP_HEADER_LEN);
}
