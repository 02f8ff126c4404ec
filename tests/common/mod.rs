//! Code shared by the integration suites; each suite uses a part of it.
#![allow(dead_code)]

pub mod gen;
