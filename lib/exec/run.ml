type owner = App | Kernel
type t = { owner : owner; addr : int; len : int }

let owner_name = function App -> "application" | Kernel -> "kernel"
