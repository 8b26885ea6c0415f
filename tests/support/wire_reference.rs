//! The registry's byte layout, written out. Nothing in the workspace
//! encodes a registry message: each type counts its own `wire_size()`.
//! This writer is what those counts stand for — big-endian fixed-width
//! integers, a `u32` length ahead of every string and list, a tag byte
//! ahead of every attribute entry, and a template's matchers as their
//! `Debug` text — and `tests/registry_proptests.rs` holds every count to
//! the length of what it writes.

use sensorcer_suite::registry::attributes::Entry;
use sensorcer_suite::registry::events::ServiceEvent;
use sensorcer_suite::registry::ids::{InterfaceId, SvcUuid};
use sensorcer_suite::registry::item::{ServiceItem, ServiceTemplate};

fn put_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&u32::try_from(len).expect("fits a u32").to_be_bytes());
}

fn put_text(out: &mut Vec<u8>, text: &str) {
    put_len(out, text.len());
    out.extend_from_slice(text.as_bytes());
}

fn put_uuid(out: &mut Vec<u8>, uuid: SvcUuid) {
    out.extend_from_slice(&uuid.0.to_be_bytes());
}

fn put_interfaces(out: &mut Vec<u8>, interfaces: &[InterfaceId]) {
    put_len(out, interfaces.len());
    for iface in interfaces {
        put_text(out, iface.as_str());
    }
}

pub fn entry(entry: &Entry) -> Vec<u8> {
    let mut out = Vec::new();
    match entry {
        Entry::Name(s) | Entry::Comment(s) | Entry::ServiceType(s) => {
            let tag = match entry {
                Entry::Name(_) => 0,
                Entry::Comment(_) => 1,
                _ => 3,
            };
            out.push(tag);
            put_text(&mut out, s);
        }
        Entry::Location {
            building,
            floor,
            room,
        } => {
            out.push(2);
            for field in [building, floor, room] {
                put_text(&mut out, field);
            }
        }
        Entry::Custom { key, value } => {
            out.push(4);
            put_text(&mut out, key);
            put_text(&mut out, value);
        }
    }
    out
}

pub fn item(item: &ServiceItem) -> Vec<u8> {
    let mut out = Vec::new();
    put_uuid(&mut out, item.uuid);
    out.extend_from_slice(&item.host.0.to_be_bytes());
    out.extend_from_slice(&item.service.0.to_be_bytes());
    put_interfaces(&mut out, &item.interfaces);
    put_len(&mut out, item.attributes.len());
    for e in &item.attributes {
        out.extend(entry(e));
    }
    out
}

pub fn template(template: &ServiceTemplate) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, template.ids.len());
    for id in &template.ids {
        put_uuid(&mut out, *id);
    }
    put_interfaces(&mut out, &template.interfaces);
    put_len(&mut out, template.attributes.len());
    for matcher in &template.attributes {
        put_text(&mut out, &format!("{matcher:?}"));
    }
    out
}

/// Sequence number, instant, uuid, transition tag, and the item if there
/// is one.
pub fn event(event: &ServiceEvent) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&event.seq.to_be_bytes());
    out.extend_from_slice(&event.at.as_nanos().to_be_bytes());
    put_uuid(&mut out, event.uuid);
    out.push(event.transition as u8);
    if let Some(it) = &event.item {
        out.extend(item(it));
    }
    out
}
