//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mips64p32le || mipsle || ppc64le || riscv || riscv64 || wasm

package wire

// hostLittleEndian reports that this architecture stores numbers in the
// wire's byte order, so bulk payloads move as one copy of their memory.
const hostLittleEndian = true
